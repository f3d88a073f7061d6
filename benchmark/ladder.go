package main

import (
	"context"
	"fmt"
	"math"

	"casyn/benchmark/oracle"
	"casyn/internal/bench"
	"casyn/internal/experiments"
	"casyn/internal/flow"
	"casyn/internal/library"
	"casyn/internal/netlist"
	"casyn/internal/place"
	"casyn/internal/route"
	"casyn/internal/subject"
)

// ladderCircuits are the circuits of the paper's Tables 2 and 4 with
// their fixed full-size floorplans (the die areas the experiments
// package calibrates: K = 0 lands near the paper's utilization).
var ladderCircuits = []struct {
	class   bench.Class
	dieArea float64 // µm² at full size
}{
	{bench.SPLA, 136500},
	{bench.PDC, 141500},
}

type ladderCircuit struct {
	in      *input
	dag     *subject.DAG
	layout  place.Layout
	checked bool // the subject DAG passed the oracle
}

// ladderSession runs the K ladder of Tables 2/4: per circuit, one
// subject placement and one shared mapping prefix, then all 14 rungs,
// each with a fresh placement.
type ladderSession struct {
	lib      *library.Library
	circuits []*ladderCircuit
}

func setupLadder(ctx context.Context, cfg config) (session, error) {
	s := &ladderSession{lib: library.Default()}
	for i, c := range ladderCircuits {
		in, err := generate(ctx, c.class.String(), specFor(c.class, cfg.seed, cfg.scale), cfg.seed*8+int64(i))
		if err != nil {
			return nil, err
		}
		lc := &ladderCircuit{in: in}
		err = call(ctx, "bench.BuildSubject", func(context.Context) error {
			lc.dag, err = bench.BuildSubject(in.pla, bench.Direct, 0)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", in.name, err)
		}
		if lc.layout, err = place.NewLayout(c.dieArea*cfg.scale, 1, library.RowHeight); err != nil {
			return nil, err
		}
		s.circuits = append(s.circuits, lc)
	}
	return s, nil
}

func (s *ladderSession) flowConfig(layout place.Layout) flow.Config {
	return flow.Config{
		Layout:         layout,
		Lib:            s.lib,
		PlaceOpts:      experiments.PlaceOpts(),
		RouteOpts:      experiments.RouteOpts(),
		FreshPlacement: true,
		RunSTA:         true,
		KSchedule:      experiments.KSchedule(),
		Workers:        1,
	}
}

func (s *ladderSession) round(ctx context.Context, m *meter, _ int) error {
	for _, c := range s.circuits {
		cfg := s.flowConfig(c.layout)
		var pc *flow.Context
		var res *flow.Result
		err := m.op(ctx, c.in.name, func(ctx context.Context) error {
			err := call(ctx, "flow.Prepare", func(ctx context.Context) (err error) {
				pc, err = flow.Prepare(ctx, c.dag, cfg)
				return err
			})
			if err != nil {
				return err
			}
			err = call(ctx, "flow.PrepareMapping", func(ctx context.Context) error {
				return flow.PrepareMapping(ctx, pc, cfg)
			})
			if err != nil {
				return err
			}
			return call(ctx, "flow.Run", func(ctx context.Context) (err error) {
				res, err = flow.Run(ctx, pc, cfg)
				return err
			})
		})
		if err != nil {
			m.fail(c.in.name, err, false)
			continue
		}
		m.extra["subject.base_gates"] += float64(c.dag.BaseGateCount())
		if err := s.check(c, pc, cfg, res); err != nil {
			m.fail(c.in.name, err, true)
			continue
		}
		best := res.Best()
		m.accept(quality{best.CellArea, best.WireLength, best.Timing.MaxArrival})
	}
	return nil
}

// check holds every rung's netlist to the PLA and the accepted rung's
// placement and routing to the property checks. The accepted rung's
// placement is not part of flow.Iteration, so it is placed and routed
// again here with the flow's own settings; matching the reported
// wirelength bit for bit shows it is the same placement.
func (s *ladderSession) check(c *ladderCircuit, pc *flow.Context, cfg flow.Config, res *flow.Result) error {
	want, err := c.in.reference()
	if err != nil {
		return err
	}
	if !c.checked {
		got, err := oracle.DAG(c.dag, c.in.vec)
		if err == nil {
			err = oracle.Compare(want, got)
		}
		if err != nil {
			return fmt.Errorf("subject DAG: %w", err)
		}
		c.checked = true
	}
	if len(res.Iterations) != len(cfg.KSchedule) {
		return fmt.Errorf("%d rungs for a %d-rung ladder", len(res.Iterations), len(cfg.KSchedule))
	}
	for _, it := range res.Iterations {
		if it.Skipped {
			return fmt.Errorf("rung K=%g failed: %v", it.K, it.Err)
		}
		if err := checkNetlist(it.Netlist, it.CellArea, s.lib, c.in, want); err != nil {
			return fmt.Errorf("rung K=%g: %w", it.K, err)
		}
		if it.Timing == nil || !(it.Timing.MaxArrival > 0) {
			return fmt.Errorf("rung K=%g: no timing", it.K)
		}
	}
	best := res.Best()
	if best == nil {
		return fmt.Errorf("no accepted rung")
	}
	// Checks are the benchmark's own work: they run untraced.
	ctx := context.Background()
	pn := best.Netlist.ToPlacement(pc.PIPads, pc.POList)
	pl, err := place.PlaceNetlist(ctx, pn.Cells, cfg.Layout, cfg.PlaceOpts)
	if err != nil {
		return fmt.Errorf("re-place K=%g: %w", best.K, err)
	}
	ropts := cfg.RouteOpts
	ropts.Workers = 1
	rr, err := route.RouteNetlist(ctx, pn.Cells, pl, cfg.Layout, ropts)
	if err != nil {
		return fmt.Errorf("re-route K=%g: %w", best.K, err)
	}
	if rr.WireLength != best.WireLength {
		return fmt.Errorf("K=%g: reported wirelength %.3f µm, its placement routes to %.3f µm", best.K, best.WireLength, rr.WireLength)
	}
	if err := oracle.CheckPlacement(cfg.Layout, pn.Cells.Widths, pl.Pos); err != nil {
		return fmt.Errorf("K=%g: %w", best.K, err)
	}
	bound := oracle.WirelengthLowerBound(pn.Cells, pl.Pos, cfg.Layout.Die, ropts.GCellSize)
	if best.WireLength < bound-1e-6*math.Max(1, bound) {
		return fmt.Errorf("K=%g: routed wirelength %.3f µm is below the gcell half-perimeter bound %.3f µm", best.K, best.WireLength, bound)
	}
	return nil
}

// checkNetlist simulates a mapped netlist against the PLA reference and
// recomputes its cell area from the library.
func checkNetlist(nl *netlist.Netlist, reported float64, lib *library.Library, in *input, want oracle.Values) error {
	got, err := oracle.Netlist(nl, in.vec)
	if err == nil {
		err = oracle.Compare(want, got)
	}
	if err != nil {
		return fmt.Errorf("mapped netlist: %w", err)
	}
	area, err := oracle.CellArea(nl, lib)
	if err != nil {
		return err
	}
	return oracle.CheckArea(reported, area)
}

func (s *ladderSession) layerMetrics(*meter, map[string]float64, map[string]float64) {}

func (s *ladderSession) close() {}
