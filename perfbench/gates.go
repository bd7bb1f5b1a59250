package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro"
	"repro/internal/runner"
)

// The gates workload: the repository's correctness gates on the quick 2x2
// system with every core in use. One pass runs the exhaustive single-loss
// coverage campaign on FtDirCMP and on DirCMP, a slot-capped tile-death
// campaign on FtDirCMP, and the interleaving model-checking gate at fault
// budget 2. One op is one verified quick simulation: a census run, a slot
// run, a tile-death run, an mc baseline or path, or a counterexample
// replay. Thousands of tiny runs make system assembly, stream generation,
// end-of-run verification, image hashing, state fingerprinting and runner
// fan-out dominate, and the event loop does little.

const (
	gatesCovOps      = 20 // OpsPerCore of the coverage and tile-death campaigns
	gatesTileCap     = 4  // tile-death injection slots per message type and victim
	gatesFaultBudget = 2  // losses composed into each model-checker path
	gatesLimitMs     = 1000
)

// gatesSetup is the gates configuration for one seed plus the fault-free
// memory images every report must name as its baseline.
type gatesSetup struct {
	cov, mc           repro.Config
	covImage, mcImage uint64
}

func newGatesSetup(seed uint64) (gatesSetup, error) {
	s := gatesSetup{cov: repro.QuickConfig(), mc: repro.QuickConfig()}
	s.cov.OpsPerCore = gatesCovOps
	s.cov.Seed = runner.Seed(seed, 0)
	s.mc.OpsPerCore = 2 // the model checker's canonical two-op handoff
	s.mc.Seed = runner.Seed(seed, 1)
	for _, c := range []*repro.Config{&s.cov, &s.mc} {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	var err error
	if s.covImage, err = faultFreeImage(s.cov, "uniform"); err != nil {
		return s, err
	}
	s.mcImage, err = faultFreeImage(s.mc, repro.InterleaveWorkload)
	return s, err
}

// faultFreeImage runs the workload fault-free under both directory
// protocols and returns the memory image they must agree on.
func faultFreeImage(cfg repro.Config, workload string) (uint64, error) {
	var images [2]uint64
	for i, p := range []repro.Protocol{repro.FtDirCMP, repro.DirCMP} {
		c := cfg
		c.Protocol = p
		r, err := repro.Run(c, workload)
		if err != nil {
			return 0, fmt.Errorf("gates baseline %s/%s: %w", p, workload, err)
		}
		images[i] = r.MemoryImageHash
	}
	if images[0] != images[1] {
		return 0, fmt.Errorf("gates baseline %s: FtDirCMP image %#x != DirCMP image %#x", workload, images[0], images[1])
	}
	return images[0], nil
}

func (s gatesSetup) with(p repro.Protocol) repro.Config {
	c := s.cov
	c.Protocol = p
	return c
}

// gatesReports is one pass's output; its JSON encoding must repeat
// byte-for-byte across passes and between the untraced and traced runs.
type gatesReports struct {
	CoverageFt  *repro.CoverageReport   `json:"coverage_ftdircmp"`
	CoverageDir *repro.CoverageReport   `json:"coverage_dircmp"`
	TileDeath   *repro.CoverageReport   `json:"tile_death_ftdircmp"`
	Interleave  *repro.InterleaveReport `json:"interleave_ftdircmp"`
	Counter     *repro.InterleaveReport `json:"interleave_dircmp"`
	Replay      *repro.InterleaveReplayResult
}

// campaignOps counts a coverage report's runs: the census plus every slot
// (and double-fault) run.
func campaignOps(r *repro.CoverageReport) int { return 1 + r.SlotsTested + len(r.DoubleFaults) }

// mcOps counts an exploration's runs: the baseline plus every evaluated path.
func mcOps(r *repro.InterleaveReport) int { return 1 + r.Transitions }

// replayOps is the counterexample replayed twice.
const replayOps = 2

func (g *gatesReports) ops() int {
	return campaignOps(g.CoverageFt) + campaignOps(g.CoverageDir) + campaignOps(g.TileDeath) +
		mcOps(g.Interleave) + mcOps(g.Counter) + replayOps
}

// verdicts checks every gate's verdict and baseline.
func (g *gatesReports) verdicts(s gatesSetup) error {
	var errs []error
	check := func(ok bool, format string, args ...any) {
		if !ok {
			errs = append(errs, fmt.Errorf(format, args...))
		}
	}
	cf, cd, td := g.CoverageFt, g.CoverageDir, g.TileDeath
	check(cf.FullCoverage(), "FtDirCMP coverage: %d/%d slots recovered of %d", cf.Recovered, cf.SlotsTested, cf.TotalSlots)
	check(cd.Recovered < cd.SlotsTested, "DirCMP coverage: recovered every one of %d slots; the baseline must fail", cd.SlotsTested)
	check(td.SlotsTested > 0 && td.Recovered == td.SlotsTested && td.Unfired == 0,
		"FtDirCMP tile death: %d/%d recovered, %d unfired", td.Recovered, td.SlotsTested, td.Unfired)
	for name, r := range map[string]*repro.CoverageReport{"FtDirCMP coverage": cf, "DirCMP coverage": cd, "FtDirCMP tile death": td} {
		check(r.BaselineMemHash == s.covImage, "%s: baseline image %#x != fault-free image %#x", name, r.BaselineMemHash, s.covImage)
	}
	ft, dir := g.Interleave, g.Counter
	check(ft.Exhausted && len(ft.Violations) == 0, "FtDirCMP interleaving: exhausted=%v with %d violations", ft.Exhausted, len(ft.Violations))
	check(ft.BaselineMemHash == s.mcImage, "interleaving baseline image %#x != fault-free image %#x", ft.BaselineMemHash, s.mcImage)
	check(len(dir.Violations) > 0, "DirCMP interleaving: no counterexample")
	if len(dir.Violations) > 0 {
		v := dir.Violations[0]
		rp := g.Replay
		check(rp != nil && rp.Kind == v.Kind && rp.StateHash == v.StateHash,
			"DirCMP counterexample does not replay to its %s violation", v.Kind)
	}
	return errors.Join(errs...)
}

// opTimer times the individual runs of coverage campaigns from outside.
// internal/runner calls a campaign's Progress callback on the worker
// goroutine right after each job, under its lock, and the worker takes its
// next job straight after; so the gap between two callbacks on the same
// goroutine is one job. Each worker's first job has no start mark and is
// not sampled.
type opTimer struct {
	mu sync.Mutex
	ms []float64
}

// campaign returns the Progress callback for one campaign.
func (t *opTimer) campaign() func(done, total int) {
	last := make(map[uint64]time.Time) // worker goroutine -> its last callback
	return func(int, int) {
		now := time.Now()
		id := goroutineID()
		t.mu.Lock()
		defer t.mu.Unlock()
		if prev, ok := last[id]; ok {
			t.ms = append(t.ms, float64(now.Sub(prev).Nanoseconds())/1e6)
		}
		last[id] = now
	}
}

// goroutineID parses the current goroutine's ID from its stack header
// ("goroutine 42 [running]:").
func goroutineID() uint64 {
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	f := bytes.Fields(bytes.TrimPrefix(buf[:n], []byte("goroutine ")))
	if len(f) == 0 {
		return 0
	}
	id, _ := strconv.ParseUint(string(f[0]), 10, 64)
	return id
}

// gatesPass runs one untraced pass through the public API. It also returns
// the wall time of the interleaving gate, for states_per_s.
func gatesPass(s gatesSetup, timer *opTimer) (*gatesReports, time.Duration, error) {
	var g gatesReports
	var err error
	if g.CoverageFt, err = repro.Coverage(s.with(repro.FtDirCMP), "uniform", repro.CoverageOptions{Progress: timer.campaign()}); err != nil {
		return nil, 0, fmt.Errorf("FtDirCMP coverage: %w", err)
	}
	if g.CoverageDir, err = repro.Coverage(s.with(repro.DirCMP), "uniform", repro.CoverageOptions{Progress: timer.campaign()}); err != nil {
		return nil, 0, fmt.Errorf("DirCMP coverage: %w", err)
	}
	if g.TileDeath, err = repro.TileDeathCoverage(s.with(repro.FtDirCMP), "uniform",
		repro.TileDeathOptions{MaxSlotsPerType: gatesTileCap, Progress: timer.campaign()}); err != nil {
		return nil, 0, fmt.Errorf("FtDirCMP tile death: %w", err)
	}
	t := time.Now()
	doc, err := repro.InterleaveGate(context.Background(), s.mc, repro.InterleaveWorkload,
		repro.InterleaveOptions{FaultBudget: gatesFaultBudget})
	if err != nil {
		return nil, 0, fmt.Errorf("interleaving gate: %w", err)
	}
	mcWall := time.Since(t)
	g.Interleave, g.Counter, g.Replay = doc.FtDirCMP, doc.DirCMP, doc.Replay
	return &g, mcWall, nil
}

func measureGates(o options) *measurement {
	m := &measurement{}
	var s gatesSetup
	for rep := 0; rep < o.setupReps; rep++ {
		start := time.Now()
		var err error
		s, err = newGatesSetup(o.seed)
		m.setup = append(m.setup, time.Since(start).Seconds())
		if err != nil {
			m.ops(1, err)
			return m
		}
	}

	var first []byte
	var passS []float64
	var mcTotal float64
	var states int
	rss := startRSS()
	alloc0 := totalAlloc()
	start := time.Now()
	for time.Since(start).Seconds() < o.seconds {
		timer := &opTimer{}
		t := time.Now()
		g, mcWall, err := gatesPass(s, timer)
		if err != nil {
			m.ops(1, err)
			break
		}
		passS = append(passS, time.Since(t).Seconds())
		mcTotal += mcWall.Seconds()
		states += g.Interleave.StatesExplored + g.Counter.StatesExplored
		err = g.verdicts(s)
		if err == nil {
			err = g.sameAs(&first)
		}
		m.ops(g.ops(), err)
		if err != nil {
			continue
		}
		m.latMs = append(m.latMs, timer.ms...)
		for _, ms := range timer.ms {
			if ms <= gatesLimitMs {
				m.good++
			}
		}
		// The ops not timed one by one (census runs, mc paths, replays) take
		// milliseconds at most; they meet the limit when their pass verified.
		m.good += g.ops() - len(timer.ms)
	}
	m.elapsed = time.Since(start).Seconds()
	m.alloc = totalAlloc() - alloc0
	m.rssMB = rss.stop()

	m.extra = append(m.extra,
		fmt.Sprintf("gate_s %.6g s (median wall time of one complete gates pass, n=%d)", median(passS), len(passS)),
		fmt.Sprintf("states_per_s %.6g state/s (model-checker states explored per host second of the interleaving gate)", ratio(float64(states), mcTotal)),
		fmt.Sprintf("op latency samples cover coverage and tile-death runs only: n=%d of %d ops", len(m.latMs), m.attempted))
	return m
}

// sameAs checks that the pass's reports encode exactly like the first
// pass's; the first call records them.
func (g *gatesReports) sameAs(first *[]byte) error {
	b, err := json.Marshal(g)
	if err != nil {
		return err
	}
	if *first == nil {
		*first = b
		return nil
	}
	if !bytes.Equal(b, *first) {
		return fmt.Errorf("gates pass reports differ from the first pass's")
	}
	return nil
}
