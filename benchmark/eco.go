package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"casyn/benchmark/oracle"
	"casyn/internal/bench"
	"casyn/internal/geom"
	"casyn/internal/library"
	"casyn/internal/mapper"
	"casyn/internal/obs"
	"casyn/internal/serve"
)

// ecoEdits is the number of edit sets a round submits: enough for a
// 75th percentile with 10 samples beyond it.
const ecoEdits = 40

// ecoSession is one closed-loop client of casynd's Go API: a full-size
// base job, then edit sets submitted one after another against it, each
// waiting for the previous one to finish.
type ecoSession struct {
	seed int64
	lib  *library.Library
	in   *input
	// subj is the client's copy of the base design, which the oracle
	// applies each edit set to; prep lets the client draw valid edits.
	subj *oracle.Subject
	prep *mapper.Prepared
	srv  *serve.Server
	base *serve.Job
	// before is the daemon's metrics at the start of the latest round.
	before obs.Snapshot
}

func setupECO(ctx context.Context, cfg config) (session, error) {
	s := &ecoSession{seed: cfg.seed, lib: library.Default()}
	in, err := generate(ctx, "spla", specFor(bench.SPLA, cfg.seed, cfg.scale), cfg.seed*8)
	if err != nil {
		return nil, err
	}
	s.in = in
	var text strings.Builder
	if err := in.pla.Write(&text); err != nil {
		return nil, err
	}
	// The client decomposes the same PLA the daemon receives, so gate IDs
	// agree: edits are drawn against this DAG and the oracle applies them
	// to it.
	dag, err := bench.BuildSubject(in.pla, bench.Direct, 0)
	if err != nil {
		return nil, err
	}
	s.subj = oracle.CopyDAG(dag)
	s.prep, err = mapper.Prepare(ctx, dag, mapper.Input{Pos: make([]geom.Point, dag.NumGates())},
		mapper.Options{Lib: s.lib, Workers: 1})
	if err != nil {
		return nil, err
	}

	s.srv = serve.New(serve.Config{Workers: 1, JobWorkers: 1})
	err = call(ctx, "serve.Submit", func(ctx context.Context) error {
		job, err := s.srv.Submit(serve.JobSpec{PLA: text.String(), K: synthK, Timing: true, Workers: 1})
		if err != nil {
			return err
		}
		s.base = job
		_, err = wait(ctx, job)
		return err
	})
	if err == nil {
		// The first edit set builds the daemon's cached ECO baseline.
		var spec *serve.EcoSpec
		if _, spec, err = s.edits(-1, 0); err == nil {
			_, err = s.submit(ctx, spec)
		}
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// wait blocks until the job ends and returns its result.
func wait(ctx context.Context, job *serve.Job) (*serve.JobResult, error) {
	select {
	case <-job.Done():
	case <-ctx.Done():
		job.Cancel()
		return nil, ctx.Err()
	}
	res, jerr := job.Result()
	if jerr != nil {
		return nil, fmt.Errorf("job %s: %s", job.ID, jerr.Message)
	}
	return res, nil
}

// edits draws edit set i of round r: 1 to 4 random valid edits.
func (s *ecoSession) edits(r, i int) (mapper.EditSet, *serve.EcoSpec, error) {
	rng := rand.New(rand.NewSource(s.seed*1_000_003 + int64(r)*ecoEdits + int64(i)))
	es := mapper.RandomEdits(s.prep, rng, 1+rng.Intn(4))
	doc, err := json.Marshal(es)
	if err != nil {
		return es, nil, err
	}
	var set struct{ Edits json.RawMessage }
	if err := json.Unmarshal(doc, &set); err != nil {
		return es, nil, err
	}
	body, err := json.Marshal(map[string]any{"edits": set.Edits, "fast": true, "verilog": true})
	if err != nil {
		return es, nil, err
	}
	spec, err := serve.ParseEcoSpec(bytes.NewReader(body))
	return es, spec, err
}

// submit sends an edit set against the base job and waits for its
// result.
func (s *ecoSession) submit(ctx context.Context, spec *serve.EcoSpec) (res *serve.JobResult, err error) {
	err = call(ctx, "serve.SubmitECO", func(ctx context.Context) error {
		job, err := s.srv.SubmitECO(s.base, spec)
		if err != nil {
			return err
		}
		res, err = wait(ctx, job)
		return err
	})
	return res, err
}

func (s *ecoSession) round(ctx context.Context, m *meter, r int) error {
	s.before = s.srv.Metrics()
	for i := 0; i < ecoEdits; i++ {
		es, spec, err := s.edits(r, i)
		if err != nil {
			return fmt.Errorf("edit set %d/%d: %w", r, i, err)
		}
		var res *serve.JobResult
		err = m.op(ctx, "eco", func(ctx context.Context) (err error) {
			res, err = s.submit(ctx, spec)
			return err
		})
		name := fmt.Sprintf("eco %d/%d", r, i)
		if err != nil {
			m.fail(name, err, false)
			continue
		}
		if err := s.check(es, res); err != nil {
			m.fail(name, err, true)
			continue
		}
		m.accept(quality{res.CellArea, res.WireLength, res.CriticalPathNs})
	}
	return nil
}

// check holds an ECO result's Verilog to the edited base design.
func (s *ecoSession) check(es mapper.EditSet, res *serve.JobResult) error {
	edited := &oracle.Subject{Gates: append([]oracle.Gate(nil), s.subj.Gates...), Outputs: s.subj.Outputs}
	if err := edited.ApplyEdits(es); err != nil {
		return err
	}
	want, err := edited.Simulate(s.in.vec)
	if err != nil {
		return fmt.Errorf("edited subject: %w", err)
	}
	got, area, err := oracle.Verilog(res.Verilog, s.lib, s.in.vec)
	if err == nil {
		err = oracle.Compare(want, got)
	}
	if err != nil {
		return fmt.Errorf("eco netlist: %w", err)
	}
	if err := oracle.CheckArea(res.CellArea, area); err != nil {
		return err
	}
	if !(res.CriticalPathNs > 0) {
		return fmt.Errorf("no timing for a timed job")
	}
	return nil
}

// layerMetrics reads the daemon's own metrics for the traced round: it
// keeps only per-stage latency histograms of each job's spans, so
// stage self times come from those, and the rest of the jobs' wall time
// is the daemon's.
func (s *ecoSession) layerMetrics(m *meter, out map[string]float64, self map[string]float64) {
	after := s.srv.Metrics()
	counter := func(name string) float64 { return float64(after.Counters[name] - s.before.Counters[name]) }
	hist := func(name string) (float64, float64) {
		a, b := after.Histograms[name], s.before.Histograms[name]
		return float64(a.Count - b.Count), (a.Sum - b.Sum) / 1000
	}
	for metricName, c := range counterNames {
		out[metricName] = counter(c)
	}
	out["serve.cache.prepared_hits"] = counter("serve.cache.prepared_hits")
	out["serve.cache.eco_hits"] = counter("serve.cache.eco_hits")
	_, jobs := hist("serve.job_ms")
	out["serve.job_s"] = jobs
	out["serve.queue_wait_s"] = sumDur(m.walls).Seconds() - jobs
	out["flow.iterations"], _ = hist("serve.stage_ms.map")
	out["map.prepares"], _ = hist("serve.stage_ms.map_prepare")
	for name := range after.Histograms {
		stage, ok := strings.CutPrefix(name, "serve.stage_ms.")
		if !ok {
			continue
		}
		_, t := hist(name)
		self[layerOf("stage."+stage)] += t
		self["serve"] -= t
		switch stage {
		case "prepare":
			out["place.prepare_s"] = t
		case "map_prepare":
			out["map.prepare_s"] = t
		case "sta":
			out["sta.analyze_s"] = t
		case "verify":
			out["verify.check_s"] = t
		}
	}
}

func (s *ecoSession) close() {
	if s.srv != nil {
		s.srv.Close()
	}
}
