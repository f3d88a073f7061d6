package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// TestWorkloadsSmoke runs every workload on reduced-scale circuits,
// untraced and traced, with every output checked by the oracle. Every
// failed operation must be one of the program's known faults.
func TestWorkloadsSmoke(t *testing.T) {
	for _, name := range []string{"paper-ladder", "verified-synthesis", "eco-session"} {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace"+trace, func(t *testing.T) {
				var out, errOut bytes.Buffer
				args := []string{"--workload", name, "--seed", "3", "--seconds", "1", "--trace", trace, "--scale", "0.05"}
				if code := run(context.Background(), args, &out, &errOut); code != 0 {
					t.Fatalf("exit %d: %s", code, errOut.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var rep report
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				// Known faults of the program, documented in README.md: the
				// equivalence checker cannot prove TOO_LARGE, and the row
				// legalizer can push a cell out of a small die.
				var unproven, offDie int
				for _, l := range lines {
					switch {
					case !strings.HasPrefix(l, "failed:"):
					case strings.HasPrefix(l, "failed: too_large: requested proof is unproven"):
						unproven++
					case name == "paper-ladder" && strings.Contains(l, "leaves the die"):
						offDie++
						t.Logf("known legalizer fault: %s", l)
					default:
						t.Errorf("unexpected failure %q", l)
					}
				}
				if rep.Attempted == 0 || rep.Failed != unproven+offDie || rep.Correct != (offDie == 0) {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", rep.Correct, rep.Attempted, rep.Failed, out.String())
				}
				if name == "verified-synthesis" && unproven != rep.Attempted/len(synthDesigns) {
					t.Fatalf("TOO_LARGE failed %d times in %d rounds", unproven, rep.Attempted/len(synthDesigns))
				}
				want := []string{"setup_s", "wall_s", "op_p50_s", "op_p75_s", "alloc_mb", "cell_area_um2", "wirelength_um", "critical_path_ns"}
				if trace == "1" {
					want = perLayer
				}
				for _, m := range want {
					if _, ok := rep.Metrics[m]; !ok {
						t.Errorf("metric %s missing", m)
					}
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(rep.Metrics), len(want))
				}
			})
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "paper-ladder", "--trace", "2"},
		{"--workload", "paper-ladder", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(context.Background(), args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
