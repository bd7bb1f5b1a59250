//go:build !race

// The allocation pin is meaningless under the race detector: sync.Pool
// deliberately drops a random fraction of recycled items when -race is on,
// so allocs/op inflates nondeterministically. The pooling *correctness*
// tests (TestPoolingOffGoldenIdentity) still run under -race.

package repro

import (
	"runtime"
	"testing"

	"repro/internal/system"
)

// TestFig3QuickAllocsPin pins the steady-state allocation count of the
// quick Figure-3 configuration with instrumentation off — the regression
// guard for the pooled hot path (messages, events, MSHR entries, timer
// callbacks, deferred completions). The baseline before pooling was
// ~130k allocs per run; the pooled path measures ~3k, dominated by
// per-run setup (workload streams, stats tables, map growth). The pin at
// 12000 leaves headroom for toolchain drift while still catching any
// reintroduced per-message or per-event allocation, which costs tens of
// thousands per run.
func TestFig3QuickAllocsPin(t *testing.T) {
	run := func() {
		cfg := benchConfig()
		cfg.Protocol = FtDirCMP
		if _, err := Run(cfg, "uniform"); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the pools: first runs pay one-time allocations for pool
	// populations sized to the working set.
	run()
	run()
	const maxAllocs = 12000
	if n := testing.AllocsPerRun(3, run); n > maxAllocs {
		t.Errorf("quick Fig-3 run: %.0f allocs, want <= %d (pre-pooling baseline was ~130000)", n, maxAllocs)
	}
}

// TestDirCMPAllocsPin holds the baseline to the fault-tolerant protocol's
// allocation budget: DirCMP runs on the same pooled controllers as
// FtDirCMP and does strictly less work (no backups, timers or
// acknowledgment handshakes), so it must not allocate more per run.
func TestDirCMPAllocsPin(t *testing.T) {
	allocs := func(p Protocol) float64 {
		run := func() {
			cfg := benchConfig()
			cfg.Protocol = p
			if _, err := Run(cfg, "uniform"); err != nil {
				t.Fatal(err)
			}
		}
		run()
		run()
		return testing.AllocsPerRun(3, run)
	}
	dir, ft := allocs(DirCMP), allocs(FtDirCMP)
	t.Logf("allocs/run: DirCMP %.0f, FtDirCMP %.0f", dir, ft)
	if dir > ft {
		t.Errorf("DirCMP %.0f allocs/run > FtDirCMP %.0f", dir, ft)
	}
}

// TestTable4SetupAllocsPin bounds the heap bytes of assembling the paper's
// Table-4 system (4x4 tiles, 32 KB L1s, 512 KB L2 banks). Cache sets are
// built on first touch, so assembly allocates no cache frames; an eager
// build allocated 10.7 MB of them, which every gate run and every service
// request paid before simulating a cycle.
func TestTable4SetupAllocsPin(t *testing.T) {
	cfg := DefaultConfig().toInternal()
	build := func() {
		if _, err := system.New(cfg); err != nil {
			t.Fatal(err)
		}
	}
	build()
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		build()
	}
	runtime.ReadMemStats(&after)
	const maxBytes = 1 << 20
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("system.New(DefaultConfig): %d B, %d allocs", perRun, (after.Mallocs-before.Mallocs)/runs)
	if perRun > maxBytes {
		t.Errorf("system.New(DefaultConfig) allocated %d bytes, want <= %d (eager cache frames were 10.7 MB)", perRun, maxBytes)
	}
}
