package main

import (
	"context"
	"fmt"

	"casyn"
	"casyn/benchmark/oracle"
	"casyn/internal/bench"
	"casyn/internal/library"
	"casyn/internal/subject"
)

// synthK is the fixed congestion factor of verified synthesis, the
// operating point of the paper's single-K runs.
const synthK = 0.001

// synthDesigns are the verified-synthesis operations. TOO_LARGE keeps
// its canonical circuit whatever the seed: its mapped-netlist check
// ends unproven on every run (a known limit of the equivalence
// checker), so it counts as one failed operation per round.
var synthDesigns = []struct {
	name     string
	class    bench.Class
	seeded   bool
	dies     int
	adaptive bool
}{
	{"spla", bench.SPLA, true, 0, false},
	{"pdc", bench.PDC, true, 0, false},
	{"too_large", bench.TooLarge, false, 0, false},
	{"spla-4die", bench.SPLA, true, 4, false},
	{"spla-adaptive", bench.SPLA, true, 0, true},
}

type synthSession struct {
	lib    *library.Library
	inputs map[bench.Class]*input
}

func setupSynth(ctx context.Context, cfg config) (session, error) {
	s := &synthSession{lib: library.Default(), inputs: map[bench.Class]*input{}}
	for i, d := range synthDesigns {
		if s.inputs[d.class] != nil {
			continue
		}
		seed := cfg.seed
		if !d.seeded {
			seed = 0
		}
		in, err := generate(ctx, d.class.String(), specFor(d.class, seed, cfg.scale), cfg.seed*8+int64(i))
		if err != nil {
			return nil, err
		}
		s.inputs[d.class] = in
	}
	return s, nil
}

func (s *synthSession) round(ctx context.Context, m *meter, _ int) error {
	for _, d := range synthDesigns {
		in := s.inputs[d.class]
		opts := casyn.Options{K: synthK, Verify: true, RunTiming: true, Workers: 1, Dies: d.dies, Adaptive: d.adaptive}
		var dag *subject.DAG
		var res *casyn.Result
		err := m.op(ctx, d.name, func(ctx context.Context) error {
			err := call(ctx, "casyn.SubjectFor", func(ctx context.Context) (err error) {
				dag, err = casyn.SubjectFor(ctx, in.pla, opts)
				return err
			})
			if err != nil {
				return err
			}
			return call(ctx, "casyn.SynthesizeSubjectContext", func(ctx context.Context) (err error) {
				res, err = casyn.SynthesizeSubjectContext(ctx, dag, opts)
				return err
			})
		})
		if err != nil {
			m.fail(d.name, err, false)
			continue
		}
		m.extra["subject.base_gates"] += float64(res.BaseGates)
		if d.dies > 1 {
			m.extra["kway.replicated_gates"] += float64(res.ReplicatedGates)
			m.extra["kway.cross_region_nets"] += float64(res.CrossRegionNets)
		}
		if err := s.check(in, dag, res, d.dies, d.adaptive); err != nil {
			m.fail(d.name, err, true)
			continue
		}
		rep := res.Verify
		m.extra["verify.checks"]++
		m.extra["verify.vectors"] += float64(rep.VectorsSimulated)
		m.extra["verify.bdd_nodes_max"] = max(m.extra["verify.bdd_nodes_max"], float64(rep.BDDNodes))
		if !rep.Proven {
			m.fail(d.name, fmt.Errorf("requested proof is unproven: %s", rep), false)
			continue
		}
		m.extra["verify.proven"]++
		m.accept(quality{res.CellArea, res.WireLength, res.CriticalPathNs})
	}
	return nil
}

// check holds the subject DAG and the mapped netlist to the PLA.
func (s *synthSession) check(in *input, dag *subject.DAG, res *casyn.Result, dies int, adaptive bool) error {
	want, err := in.reference()
	if err != nil {
		return err
	}
	got, err := oracle.DAG(dag, in.vec)
	if err == nil {
		err = oracle.Compare(want, got)
	}
	if err != nil {
		return fmt.Errorf("subject DAG: %w", err)
	}
	if err := checkNetlist(res.Mapped, res.CellArea, s.lib, in, want); err != nil {
		return err
	}
	switch {
	case res.Verify == nil || !res.Verify.Equivalent:
		return fmt.Errorf("no equivalence report for a verified run")
	case !(res.CriticalPathNs > 0):
		return fmt.Errorf("no timing for a timed run")
	case dies > 1 && res.Dies != dies:
		return fmt.Errorf("synthesized for %d dies, asked for %d", res.Dies, dies)
	case adaptive && res.AdaptiveIterations < 1:
		return fmt.Errorf("closed loop reports %d iterations", res.AdaptiveIterations)
	}
	return nil
}

func (s *synthSession) layerMetrics(*meter, map[string]float64, map[string]float64) {}

func (s *synthSession) close() {}
