package main

import (
	"fmt"
	"maps"
	"time"

	"repro"
	"repro/internal/runner"
)

// The mesh workload: the paper's Table-4 system (4x4 tiles, 2000 ops per
// core), one repro.Run at a time, cycling through a fixed mix of protocol,
// kernel and loss rate. One op is one verified simulation. The event loop
// (sim queue, NoC, L1/L2/memory handlers) is nearly all of the host time
// here, so this is where an event-queue or NoC change must show.

// meshKernels mixes read-heavy kernels with write- and ownership-heavy ones.
var meshKernels = []string{"uniform", "readmostly", "migratory", "scan"}

// meshLimitMs is mesh's per-op latency limit for goodput: several times the
// slowest op of the mix on a 2-core host.
const meshLimitMs = 5000

// meshCase is one simulation of the mix.
type meshCase struct {
	label  string
	kernel string
	cfg    repro.Config
}

// meshMix is {FtDirCMP, DirCMP} x the kernels, fault-free, plus FtDirCMP
// uniform at 1000 losses per million. Kernel i runs at seed Seed(seed, i)
// under both protocols, so all of a kernel's runs must end in one memory
// image.
func meshMix(seed uint64) []meshCase {
	var mix []meshCase
	for _, p := range []repro.Protocol{repro.FtDirCMP, repro.DirCMP} {
		for i, k := range meshKernels {
			cfg := repro.DefaultConfig()
			cfg.Protocol = p
			cfg.Parallelism = 1
			cfg.Seed = runner.Seed(seed, i)
			mix = append(mix, meshCase{label: p.String() + "/" + k, kernel: k, cfg: cfg})
		}
	}
	lossy := mix[0]
	lossy.label += "/loss1000"
	lossy.cfg.FaultRatePerMillion = 1000
	lossy.cfg.FaultSeed = runner.Seed(seed, len(meshKernels))
	return append(mix, lossy)
}

// digest is what must repeat exactly for one (protocol, kernel, seed).
type digest struct {
	Cycles, Messages, Bytes, Image uint64
}

func digestOf(r *repro.Result) digest {
	return digest{Cycles: r.Cycles, Messages: r.Messages, Bytes: r.Bytes, Image: r.MemoryImageHash}
}

// meshBaselines runs the fault-free FtDirCMP case of every kernel: its
// digest is the reference the mix's first cases must reproduce, and its
// memory image is the oracle for every run of that kernel.
func meshBaselines(mix []meshCase) (map[string]digest, error) {
	base := make(map[string]digest, len(meshKernels))
	for _, c := range mix[:len(meshKernels)] {
		r, err := repro.Run(c.cfg, c.kernel)
		if err != nil {
			return nil, fmt.Errorf("mesh baseline %s: %w", c.label, err)
		}
		base[c.label] = digestOf(r)
	}
	return base, nil
}

// meshChecker verifies mesh ops against the baselines and against the first
// digest seen for each case.
type meshChecker struct {
	images map[string]uint64 // kernel -> fault-free memory image
	seen   map[string]digest // case label -> first digest
}

func newMeshChecker(mix []meshCase, base map[string]digest) *meshChecker {
	c := &meshChecker{images: map[string]uint64{}, seen: map[string]digest{}}
	for _, m := range mix[:len(meshKernels)] {
		c.images[m.kernel] = base[m.label].Image
		c.seen[m.label] = base[m.label]
	}
	return c
}

func (c *meshChecker) check(mc meshCase, d digest, ops uint64, runErr error) error {
	if runErr != nil {
		return fmt.Errorf("mesh %s: %w", mc.label, runErr)
	}
	if want := uint64(mc.cfg.MeshWidth * mc.cfg.MeshHeight * mc.cfg.OpsPerCore); ops != want {
		return fmt.Errorf("mesh %s: retired %d ops, want %d", mc.label, ops, want)
	}
	if d.Image != c.images[mc.kernel] {
		return fmt.Errorf("mesh %s: memory image %#x differs from the fault-free image %#x", mc.label, d.Image, c.images[mc.kernel])
	}
	if first, ok := c.seen[mc.label]; ok && first != d {
		return fmt.Errorf("mesh %s: digest %+v does not repeat %+v", mc.label, d, first)
	}
	c.seen[mc.label] = d
	return nil
}

func measureMesh(o options) *measurement {
	m := &measurement{}
	var mix []meshCase
	var base map[string]digest
	for rep := 0; rep < o.setupReps; rep++ {
		start := time.Now()
		mx := meshMix(o.seed)
		b, err := meshBaselines(mx)
		m.setup = append(m.setup, time.Since(start).Seconds())
		if err != nil {
			m.ops(1, err)
			return m
		}
		if base != nil && !maps.Equal(b, base) {
			m.fail(fmt.Errorf("mesh baselines differ between set-ups: %v vs %v", b, base))
		}
		mix, base = mx, b
	}
	chk := newMeshChecker(mix, base)

	var simOps uint64
	caseMs := make(map[string][]float64)
	var cycleS []float64
	rss := startRSS()
	alloc0 := totalAlloc()
	start := time.Now()
	for {
		cycleStart := time.Now()
		for _, c := range mix {
			t := time.Now()
			r, err := repro.Run(c.cfg, c.kernel)
			ms := msSince(t)
			var d digest
			var ops uint64
			if r != nil {
				d, ops = digestOf(r), r.Ops
			}
			if err = chk.check(c, d, ops, err); err == nil {
				m.latMs = append(m.latMs, ms)
				caseMs[c.label] = append(caseMs[c.label], ms)
				simOps += ops
				if ms <= meshLimitMs {
					m.good++
				}
			}
			m.op(err)
		}
		cycleS = append(cycleS, time.Since(cycleStart).Seconds())
		if time.Since(start).Seconds() >= o.seconds && m.attempted >= o.meshMinOps {
			break
		}
	}
	m.elapsed = time.Since(start).Seconds()
	m.alloc = totalAlloc() - alloc0
	m.rssMB = rss.stop()

	m.extra = append(m.extra,
		fmt.Sprintf("sim_ops_per_s %.6g op/s (simulated core memory ops retired per host second)", float64(simOps)/m.elapsed),
		fmt.Sprintf("cycle_s %.6g s (median wall time of one pass over the %d-case mix, n=%d)", median(cycleS), len(mix), len(cycleS)))
	for _, c := range mix {
		m.extra = append(m.extra, fmt.Sprintf("case %-28s p50 %8.2f ms (n=%d)", c.label, median(caseMs[c.label]), len(caseMs[c.label])))
	}
	return m
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
