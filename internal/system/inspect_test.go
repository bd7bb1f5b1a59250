package system

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/msg"
	"repro/internal/proto"
	"repro/internal/workload"
)

// quickConfig mirrors the public QuickConfig geometry: a 2x2 mesh, two
// memory controllers, 8 KB L1s and 32 KB L2 banks.
func quickConfig(p Protocol) Config {
	cfg := DefaultConfig()
	cfg.Protocol = p
	cfg.MeshWidth = 2
	cfg.MeshHeight = 2
	cfg.Mems = 2
	cfg.Params.L1Size = 8 * 1024
	cfg.Params.L2Size = 32 * 1024
	cfg.OpsPerCore = 400
	return cfg
}

// TestInspectLineMatchesInspectLines is the differential test behind the
// recovery probe's point inspection: at sampled instants of lossy runs of
// every protocol (and of a tile-death run), every live agent's
// InspectLine(a) must report exactly the views its InspectLines reports
// for a, in the same order. The addresses checked are every address any
// agent reports plus addresses no agent ever touched.
func TestInspectLineMatchesInspectLines(t *testing.T) {
	type run struct {
		name string
		cfg  Config
		w    workload.Workload
	}
	var runs []run
	for _, p := range []Protocol{DirCMP, FtDirCMP, TokenCMP, FtTokenCMP} {
		// The larger footprint overflows the L2 banks, so dirty lines are
		// also written back to memory.
		for _, lines := range []int{512, 8192} {
			cfg := quickConfig(p)
			// DirCMP cannot recover a loss, so its first one ends the
			// run; a lower rate lets it run long enough to sample.
			rate := 2000
			if p == DirCMP {
				rate = 100
			}
			cfg.Injector = fault.NewRate(rate, 7)
			runs = append(runs, run{fmt.Sprintf("%s/uniform%d", p, lines), cfg, workload.Uniform(lines, 0.5)})
		}
	}
	death := quickConfig(FtDirCMP)
	death.Injector = fault.NewTileDeath(1, msg.GetX, 5)
	runs = append(runs, run{"FtDirCMP/tile-death", death, workload.Uniform(512, 0.5)})

	// Never-touched addresses: beyond every workload's footprint, and in
	// the same cache sets as touched lines.
	untouched := []msg.Addr{0x7fff_0000, 0x7fff_0040, 0x7fff_1000, 1 << 40}

	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			s, err := New(r.cfg)
			if err != nil {
				t.Fatal(err)
			}
			s.Begin(r.w)
			const every = 97
			var events, samples, views int
			s.Engine().RunUntil(s.cfg.Limit, func() bool {
				if events++; events%every == 0 {
					samples++
					views += checkInspectLine(t, s, untouched)
				}
				return t.Failed() || s.AllDone()
			})
			views += checkInspectLine(t, s, untouched)
			if samples < 10 || views == 0 {
				t.Fatalf("only %d samples, %d views: the run did not exercise the check", samples, views)
			}
		})
	}
}

// checkInspectLine compares InspectLine against filtered InspectLines for
// every live agent of s and returns the number of views compared.
func checkInspectLine(t *testing.T, s *System, untouched []msg.Addr) int {
	t.Helper()
	type agentLines struct {
		a     proto.Inspectable
		views map[msg.Addr][]proto.LineView
	}
	var agents []agentLines
	addrs := map[msg.Addr]bool{}
	for _, a := range s.agents {
		if s.deadNodes[a.NodeID()] {
			continue
		}
		al := agentLines{a, map[msg.Addr][]proto.LineView{}}
		a.InspectLines(func(v proto.LineView) {
			al.views[v.Addr] = append(al.views[v.Addr], v)
			addrs[v.Addr] = true
		})
		agents = append(agents, al)
	}
	for _, u := range untouched {
		addrs[u] = true
	}
	n := 0
	for _, al := range agents {
		for addr := range addrs {
			var got []proto.LineView
			al.a.InspectLine(addr, func(v proto.LineView) { got = append(got, v) })
			want := al.views[addr]
			if !equalViews(got, want) {
				t.Errorf("cycle %d node %d line %#x: InspectLine = %+v, InspectLines reports %+v",
					s.engine.Now(), al.a.NodeID(), addr, got, want)
				return n
			}
			n += len(want)
		}
	}
	return n
}

func equalViews(a, b []proto.LineView) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
