package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"
)

// heldOutSeed was not used while the benchmark was written or tuned.
const heldOutSeed = 7001

// exactMetrics are the per-layer counts that must repeat bit for bit on a
// seed: simulated invariants and deterministic work counts.
var exactMetrics = []string{
	"sim.events_per_op", "sim.pending_mean", "sim.pending_peak", "sim.heap_grows",
	"noc.msgs_per_op", "noc.bytes_per_op", "noc.latency_cycles", "noc.msgs_per_event",
	"ctrl.cycles_per_op", "ctrl.misses_per_op", "ctrl.c2c_per_op", "ctrl.l2_misses_per_op",
	"ft.timeouts_per_op", "ft.reissues_per_op", "obs.events_per_op",
	"coverage.runs", "mc.states", "mc.paths",
}

// shortOptions shrinks every phase to its minimum: one mesh cycle, one
// gates pass, a few seconds of serving.
func shortOptions(t *testing.T) options {
	o := defaultOptions()
	o.seed, o.dir = heldOutSeed, t.TempDir()
	o.seconds, o.setupReps, o.meshMinOps = 1, 1, 1
	o.serveTraced, o.ladderStep = 1, 0.5
	return o
}

// benchmarkJSON reads the metric names BENCHMARK.json declares.
func benchmarkJSON(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, m := range doc.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range doc.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func sameNames(t *testing.T, what string, got map[string]metric, want []string) {
	t.Helper()
	var names []string
	for n := range got {
		names = append(names, n)
	}
	sort.Strings(names)
	want = append([]string(nil), want...)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("%s metrics %v, BENCHMARK.json declares %v", what, names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("%s metrics %v, BENCHMARK.json declares %v", what, names, want)
		}
	}
}

func TestWorkloadsOnHeldOutSeed(t *testing.T) {
	endToEnd, _ := benchmarkJSON(t)
	for _, name := range []string{"mesh", "gates", "serve"} {
		t.Run(name, func(t *testing.T) {
			rep := workloads[name](shortOptions(t)).report(io.Discard)
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d: %v", rep.Correct, rep.Attempted, rep.Failed, rep.errs)
			}
			sameNames(t, name, rep.Metrics, endToEnd)
			for n, m := range rep.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v, want a positive value", n, m.Value)
				}
			}
		})
	}
}

func TestTracedRunRepeatsExactly(t *testing.T) {
	_, perLayer := benchmarkJSON(t)
	var runs [2]*report
	for i := range runs {
		runs[i] = runTraced(shortOptions(t), io.Discard)
		if !runs[i].Correct || runs[i].Failed != 0 {
			t.Fatalf("traced run %d: correct=%v failed=%d: %v", i, runs[i].Correct, runs[i].Failed, runs[i].errs)
		}
		sameNames(t, "traced", runs[i].Metrics, perLayer)
	}
	for _, n := range exactMetrics {
		a, b := runs[0].Metrics[n], runs[1].Metrics[n]
		if a.Value != b.Value || a.Value == 0 {
			t.Errorf("%s: %v then %v, want one non-zero value twice", n, a.Value, b.Value)
		}
	}
}

func TestNearestRank(t *testing.T) {
	asc := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {91, 10}, {100, 10}, {1, 1}} {
		if got := nearestRank(asc, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "mesh", "--trace", "2"},
		{"--workload", "mesh", "--seconds", "0"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}
