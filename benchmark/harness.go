package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"casyn/internal/obs"
)

// An untraced invocation sets up at least minSetups times and until
// setupBudget has passed (at most maxSetups times); setup_s is the
// median, so even a set-up of milliseconds is measured steadily.
const (
	minSetups   = 3
	maxSetups   = 100
	setupBudget = time.Second
)

// workload builds a benchmark scenario: its inputs, and what a user
// pays for once.
type workload func(ctx context.Context, cfg config) (session, error)

// session is a set-up workload, ready to run rounds.
type session interface {
	// round attempts every operation of the workload once; r numbers
	// the round, so inputs that must not repeat can differ per round.
	round(ctx context.Context, m *meter, r int) error
	// layerMetrics adds the per-layer figures the session observes
	// outside the benchmark's own recorder (the daemon's metrics) for
	// the traced round, whose span self times are in self.
	layerMetrics(m *meter, out map[string]float64, self map[string]float64)
	close()
}

var workloads = map[string]workload{
	"paper-ladder":       setupLadder,
	"verified-synthesis": setupSynth,
	"eco-session":        setupECO,
}

// quality is what an accepted result contributes to the quality sums.
type quality struct {
	area, wire, delay float64
}

// meter accumulates the operations of the rounds it measures.
type meter struct {
	rounds    int
	walls     []time.Duration
	alloc     uint64
	gcs       uint32
	attempted int
	failed    int
	wrong     int
	failures  []string
	q         quality
	// extra holds per-layer figures read from results (proof verdicts,
	// replication counts); keys are per-layer metric names.
	extra map[string]float64
}

func newMeter() *meter { return &meter{extra: map[string]float64{}} }

// op times one operation: the heap is collected first so every
// operation starts from the same state, and the allocation and GC
// deltas cover the call alone.
func (m *meter) op(ctx context.Context, name string, call func(context.Context) error) error {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ctx, span := obs.From(ctx).StartSpan(ctx, "op."+name)
	start := time.Now()
	err := call(ctx)
	wall := time.Since(start)
	span.End(err)
	runtime.ReadMemStats(&after)
	m.walls = append(m.walls, wall)
	m.alloc += after.TotalAlloc - before.TotalAlloc
	m.gcs += after.NumGC - before.NumGC
	m.attempted++
	return err
}

// fail records a failed operation; wrong marks an output the oracle or
// a property check rejected (a wrong answer, not a reported failure).
func (m *meter) fail(name string, err error, wrong bool) {
	m.failed++
	if wrong {
		m.wrong++
	}
	m.failures = append(m.failures, fmt.Sprintf("%s: %v", name, err))
}

func (m *meter) accept(q quality) {
	m.q.area += q.area
	m.q.wire += q.wire
	m.q.delay += q.delay
}

// call wraps one public call of the program in a span of the
// benchmark's own ("call.<name>"), so the traced run attributes the
// time between the program's spans to the layer that was called.
func call(ctx context.Context, name string, fn func(context.Context) error) error {
	ctx, span := obs.From(ctx).StartSpan(ctx, "call."+name)
	err := fn(ctx)
	span.End(err)
	return err
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile: at 75 over 40 samples,
// exactly 10 lie beyond it.
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(r, 0), len(s)-1)]
}

func durations(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func sumDur(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func runWorkload(ctx context.Context, setup workload, cfg config) (*report, error) {
	var setupRec *obs.Recorder
	if cfg.trace {
		setupRec = obs.New()
	}
	var sess session
	var setupTimes []float64
	begin := time.Now()
	for {
		if sess != nil {
			sess.close()
		}
		runtime.GC()
		start := time.Now()
		s, err := setup(obs.WithRecorder(ctx, setupRec), cfg)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		sess = s
		n := len(setupTimes)
		if cfg.trace || n >= maxSetups || n >= minSetups && time.Since(begin) >= setupBudget {
			break
		}
	}
	defer sess.close()

	// Timed phase: whole rounds, started until the run length is used.
	plain := newMeter()
	start := time.Now()
	for r := 0; r == 0 || time.Since(start) < time.Duration(cfg.seconds)*time.Second; r++ {
		if err := sess.round(ctx, plain, r); err != nil {
			return nil, err
		}
		plain.rounds++
	}
	rep := &report{Metrics: map[string]metric{}}
	meters := []*meter{plain}
	if !cfg.trace {
		rounds := float64(plain.rounds)
		e2e := map[string]metric{
			"setup_s":          {median(setupTimes), "s"},
			"wall_s":           {sumDur(plain.walls).Seconds() / rounds, "s"},
			"op_p50_s":         {median(durations(plain.walls)), "s"},
			"op_p75_s":         {percentile(durations(plain.walls), 75), "s"},
			"alloc_mb":         {float64(plain.alloc) / 1e6 / rounds, "MB"},
			"cell_area_um2":    {plain.q.area / rounds, "um2"},
			"wirelength_um":    {plain.q.wire / rounds, "um"},
			"critical_path_ns": {plain.q.delay / rounds, "ns"},
		}
		rep.Metrics = e2e
		rep.table = append(rep.table, fmt.Sprintf("%s: %d round(s), %d operation(s), %d set-up(s)",
			cfg.workload, plain.rounds, len(plain.walls), len(setupTimes)))
	} else {
		// The traced round follows the untraced ones, so its overhead is
		// measured against the same warm process.
		rec := obs.New()
		traced := newMeter()
		if err := sess.round(obs.WithRecorder(ctx, rec), traced, plain.rounds); err != nil {
			return nil, err
		}
		traced.rounds = 1
		meters = append(meters, traced)
		layers, table := layerMetrics(sess, plain, traced, setupRec.Snapshot(), rec.Snapshot())
		for name, v := range layers {
			rep.Metrics[name] = metric{v, layerUnit(name)}
		}
		rep.table = append(rep.table, table...)
	}
	rep.Correct = true
	for _, m := range meters {
		rep.Attempted += m.attempted
		rep.Failed += m.failed
		rep.failures = append(rep.failures, m.failures...)
		if m.wrong > 0 {
			rep.Correct = false
		}
	}
	for name, mt := range rep.Metrics {
		if math.IsNaN(mt.Value) || math.IsInf(mt.Value, 0) {
			return nil, fmt.Errorf("metric %s is not finite", name)
		}
	}
	return rep, nil
}

// perLayer lists every per-layer metric; each traced run reports all of
// them (0 where a workload does not reach the layer).
var perLayer = []string{
	"bench.generate_s",
	"frontend.subject_s", "subject.base_gates",
	"place.prepare_s", "place.bisect_s", "place.refine_s", "place.refine_moves",
	"place.eco_incremental", "place.eco_full",
	"map.prepare_s", "map.prepares", "map.partition_s", "map.cover_s", "map.reconstruct_s",
	"cover.matches", "map.cells", "eco.dirty_trees", "eco.reused_trees",
	"kway.replicated_gates", "kway.cross_region_nets",
	"route.first_pass_s", "route.ripup_s", "route.reroutes", "route.ripup_iterations",
	"route.failed_connections", "route.overflow_tracks", "route.eco_full", "route.eco_nets_ripped",
	"sta.analyze_s",
	"verify.check_s", "verify.checks", "verify.proven", "verify.bdd_nodes_max", "verify.vectors",
	"flow.iterations", "flow.adaptive_iterations",
	"serve.queue_wait_s", "serve.job_s", "serve.cache.prepared_hits", "serve.cache.eco_hits",
	"obs.trace_overhead", "gc.cycles",
	"self.harness_s", "self.frontend_s", "self.flow_s", "self.place_s", "self.map_s",
	"self.route_s", "self.sta_s", "self.verify_s", "self.serve_s",
}

func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_s"):
		return "s"
	case name == "obs.trace_overhead":
		return "ratio"
	default:
		return "count"
	}
}

// spanTotals maps per-layer time metrics to the spans they sum.
var spanTotals = map[string][]string{
	"bench.generate_s":   {"call.bench.Generate"},
	"frontend.subject_s": {"call.casyn.SubjectFor"},
	"place.prepare_s":    {"stage.prepare"},
	"place.bisect_s":     {"place.bisect"},
	"place.refine_s":     {"place.refine"},
	"map.prepare_s":      {"stage.map_prepare"},
	"map.partition_s":    {"map.partition"},
	"map.cover_s":        {"map.cover", "map.cover_only", "map.cover_field", "map.cover_field_delta", "eco.cover_delta"},
	"map.reconstruct_s":  {"map.reconstruct"},
	"route.first_pass_s": {"route.first_pass"},
	"route.ripup_s":      {"route.ripup"},
	"sta.analyze_s":      {"stage.sta"},
	"verify.check_s":     {"stage.verify"},
}

// counterNames maps per-layer count metrics to program counters.
var counterNames = map[string]string{
	"place.refine_moves":       "place.refine_moves",
	"place.eco_incremental":    "eco.place_incremental",
	"place.eco_full":           "eco.place_full",
	"cover.matches":            "cover.matches",
	"map.cells":                "map.cells",
	"eco.dirty_trees":          "eco.dirty_trees",
	"eco.reused_trees":         "eco.reused_trees",
	"route.reroutes":           "route.reroutes",
	"route.ripup_iterations":   "route.ripup_iterations",
	"route.failed_connections": "route.failed_connections",
	"route.overflow_tracks":    "route.overflow_tracks",
	"route.eco_full":           "eco.route_full",
	"route.eco_nets_ripped":    "eco.route_nets_ripped",
	"flow.adaptive_iterations": "flow.adaptive_iterations",
}

// layerOf names the layer a span's self time belongs to.
func layerOf(span string) string {
	switch {
	case strings.HasPrefix(span, "op."):
		return "harness"
	case span == "call.casyn.SubjectFor", span == "stage.frontend":
		return "frontend"
	case strings.HasPrefix(span, "call.serve."):
		return "serve"
	case strings.HasPrefix(span, "call."), strings.HasPrefix(span, "flow."):
		return "flow"
	case span == "stage.prepare", span == "stage.place", strings.HasPrefix(span, "place."):
		return "place"
	case span == "stage.map_prepare", span == "stage.map", span == "stage.eco",
		strings.HasPrefix(span, "map."), strings.HasPrefix(span, "eco."):
		return "map"
	case span == "stage.route", strings.HasPrefix(span, "route."):
		return "route"
	case span == "stage.sta":
		return "sta"
	case span == "stage.verify":
		return "verify"
	default:
		return "flow"
	}
}

// selfTimes attributes every instant of the spans to the innermost span
// open at it. The workloads run serially, so spans nest properly in
// time; nesting is rebuilt from the intervals because merged iteration
// spans lose their parent links outside their own batch.
func selfTimes(spans []obs.SpanRecord) map[string]float64 {
	type iv struct {
		name       string
		start, end time.Time
		covered    time.Duration
	}
	ivs := make([]*iv, len(spans))
	for i, s := range spans {
		ivs[i] = &iv{name: s.Name, start: s.Start, end: s.Start.Add(s.Wall)}
	}
	sort.SliceStable(ivs, func(i, j int) bool {
		if !ivs[i].start.Equal(ivs[j].start) {
			return ivs[i].start.Before(ivs[j].start)
		}
		return ivs[i].end.After(ivs[j].end)
	})
	var stack []*iv
	for _, s := range ivs {
		for len(stack) > 0 && !stack[len(stack)-1].end.After(s.start) {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			p := stack[len(stack)-1]
			end := s.end
			if end.After(p.end) {
				end = p.end
			}
			p.covered += end.Sub(s.start)
		}
		stack = append(stack, s)
	}
	self := map[string]float64{}
	for _, s := range ivs {
		self[layerOf(s.name)] += (s.end.Sub(s.start) - s.covered).Seconds()
	}
	return self
}

// layerMetrics computes the per-layer figures of the traced round and a
// human-readable table of layer self times.
func layerMetrics(sess session, plain, traced *meter, setup, round obs.Snapshot) (map[string]float64, []string) {
	out := map[string]float64{}
	for _, name := range perLayer {
		out[name] = 0
	}
	spanSum := func(snap obs.Snapshot, names []string) float64 {
		t := 0.0
		for _, sp := range snap.Spans {
			for _, n := range names {
				if sp.Name == n {
					t += sp.Wall.Seconds()
				}
			}
		}
		return t
	}
	for metricName, names := range spanTotals {
		out[metricName] = spanSum(round, names)
	}
	out["bench.generate_s"] = spanSum(setup, spanTotals["bench.generate_s"])
	counts := round.SpanCounts()
	out["map.prepares"] = float64(counts["stage.map_prepare"])
	out["flow.iterations"] = float64(counts["flow.iteration"])
	for metricName, counter := range counterNames {
		out[metricName] = float64(round.Counters[counter])
	}
	for k, v := range traced.extra {
		out[k] = v
	}
	out["gc.cycles"] = float64(traced.gcs)
	wallTraced := sumDur(traced.walls).Seconds()
	wallPlain := sumDur(plain.walls).Seconds() / float64(plain.rounds)
	out["obs.trace_overhead"] = wallTraced / wallPlain

	self := selfTimes(round.Spans)
	sess.layerMetrics(traced, out, self)
	layers := make([]string, 0, len(self))
	accounted := 0.0
	for l, v := range self {
		layers = append(layers, l)
		accounted += v
		out["self."+l+"_s"] = v
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	table := []string{fmt.Sprintf("traced round: wall %.3f s (untraced %.3f s, overhead ×%.3f); layer self times:",
		wallTraced, wallPlain, out["obs.trace_overhead"])}
	for _, l := range layers {
		table = append(table, fmt.Sprintf("  %-10s %9.3f s  %5.1f%%", l, self[l], 100*self[l]/wallTraced))
	}
	table = append(table, fmt.Sprintf("  %-10s %9.3f s of %.3f s traced wall", "sum", accounted, wallTraced))
	return out, table
}
