// Command benchmark is casyn's paper-scale benchmark: three serial
// workloads (the Tables 2/4 K ladder, verified synthesis, and a casynd
// ECO session) driven through the public functions of each layer, with
// every output checked by an oracle built apart from the program.
//
//	go build -o casynbench . && ./casynbench --workload paper-ladder --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. --trace 0 reports the end-to-end
// metrics of untraced runs; --trace 1 adds a traced round and reports
// the per-layer metrics instead. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

func main() { os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr)) }

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// scale shrinks the circuits for the smoke test; 1 is paper scale.
	scale float64
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+workloadNames())
	fs.Int64Var(&cfg.seed, "seed", 0, "input seed (0 = the repository's canonical circuits)")
	fs.IntVar(&cfg.seconds, "seconds", 10, "start rounds until this many seconds of the timed phase have passed")
	fs.IntVar(&trace, "trace", 0, "1 adds a traced round and reports per-layer metrics")
	fs.Float64Var(&cfg.scale, "scale", 1, "circuit scale (1 = paper scale)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	w, ok := workloads[cfg.workload]
	if !ok || trace < 0 || trace > 1 || cfg.seconds < 1 || cfg.scale <= 0 || cfg.scale > 1 {
		fmt.Fprintf(stderr, "benchmark: need --workload (%s), --seconds >= 1, --trace 0|1, 0 < --scale <= 1\n", workloadNames())
		return 2
	}
	rep, err := runWorkload(ctx, w, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", cfg.workload, err)
		return 1
	}
	rep.print(stdout)
	return 0
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	b, _ := json.Marshal(names)
	return string(b)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result of one invocation.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// table holds human-readable lines printed before the JSON.
	table []string
	// failures lists why operations failed.
	failures []string
}

func (r *report) print(w io.Writer) {
	for _, l := range r.table {
		fmt.Fprintln(w, l)
	}
	for _, f := range r.failures {
		fmt.Fprintln(w, "failed:", f)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-32s %14.6f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // a report holds only finite numbers and strings
	}
	fmt.Fprintln(w, string(b))
}
