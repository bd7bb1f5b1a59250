package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/coverage"
	"repro/internal/mc"
	"repro/internal/msg"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/system"
	"repro/internal/workload"
)

// The traced run. Each per-layer metric is measured on the workload that
// exercises its layer, so the traced run covers all three workloads
// whatever --workload names: a mesh cycle and a gates pass, each run once
// through the public API and once traced through the layers directly
// (their outputs must match byte for byte, and the time ratio is the
// tracing overhead), the two isolation probes, and a serve pass whose
// layer times come from the fleet's own service traces.

// layerMetrics collects the per-layer metrics of a traced run.
type layerMetrics map[string]metric

func (l layerMetrics) put(name string, v float64, unit string) { l[name] = metric{v, unit} }

func runTraced(o options, w io.Writer) *report {
	traces := []*tracer{newTracer("mesh"), newTracer("gates"), newTracer("serve")}
	lm := layerMetrics{}
	var t tally
	pendingMean := tracedMesh(o, traces[0], &t, lm)
	tracedGates(o, traces[1], &t, lm)
	probes(&t, lm, pendingMean)
	tracedServe(o, traces[2], &t, lm)

	path := filepath.Join(o.dir, "perfbench-trace.jsonl")
	n, err := writeSpans(path, traces)
	if err != nil {
		t.fail(fmt.Errorf("writing spans: %w", err))
	}
	fmt.Fprintf(w, "# traced run: %d spans written to %s\n", n, path)
	fmt.Fprintf(w, "# ops attempted %d, failed %d\n", t.attempted, t.failed)
	printMetrics(w, lm)
	return &report{
		Correct:   len(t.errs) == 0 && t.failed == 0 && t.attempted > 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   lm,
		errs:      t.errs,
	}
}

// tracedMesh runs one mesh cycle untraced and one traced, and returns the
// mean event-queue depth it sampled.
func tracedMesh(o options, tr *tracer, t *tally, lm layerMetrics) float64 {
	mix := meshMix(o.seed)
	base, err := meshBaselines(mix)
	if err != nil {
		t.ops(1, err)
		return 0
	}
	chk := newMeshChecker(mix, base)
	start := time.Now()
	for _, c := range mix {
		r, err := repro.Run(c.cfg, c.kernel)
		var d digest
		var ops uint64
		if r != nil {
			d, ops = digestOf(r), r.Ops
		}
		t.op(chk.check(c, d, ops, err))
	}
	untraced := time.Since(start)

	var events, pendSum, pendN, msgs, nbytes, cycles, misses, c2c, l2, timeouts, reissues, obsEvents, ops uint64
	var latWeighted float64
	var peak int
	grows0 := heapGrows()
	gets0, news0 := msg.PoolStats()
	start = time.Now()
	for _, c := range mix {
		op := tr.begin("mesh.op", 0)
		sysCfg := internalConfig(c.cfg)
		sysCfg.Injector = injectorOf(c.cfg)
		rec := obs.NewRecorder(0)
		sysCfg.Obs = rec
		w, err := workload.ByName(c.kernel)
		var st sysStats
		if err == nil {
			st, err = runSystem(tr, op, sysCfg, w, true)
		}
		tr.end(op)
		var d digest
		var done uint64
		if st.sys != nil {
			run := st.sys.Stats()
			d = digest{Cycles: st.cycles, Messages: run.Net.TotalMessages(), Bytes: run.Net.TotalBytes(), Image: st.image}
			if st.done {
				done = uint64(c.cfg.MeshWidth * c.cfg.MeshHeight * c.cfg.OpsPerCore)
			}
			p := run.Proto
			msgs += d.Messages
			nbytes += d.Bytes
			latWeighted += run.Net.AvgLatency() * float64(d.Messages)
			cycles += st.cycles
			misses += p.ReadMisses + p.WriteMisses
			c2c += p.CacheToCacheTransfers
			l2 += p.L2Misses
			timeouts += p.LostRequestTimeouts + p.LostUnblockTimeouts + p.LostAckBDTimeouts + p.BackupTimeouts
			reissues += p.RequestsReissued
			for _, n := range rec.Metrics().KindCounts() {
				obsEvents += n
			}
		}
		if err := chk.check(c, d, done, err); err != nil {
			t.op(fmt.Errorf("traced %w", err))
			continue
		}
		t.op(nil)
		ops += done
		events += st.events
		pendSum += st.pendSum
		pendN += st.pendN
		if st.pendPeak > peak {
			peak = st.pendPeak
		}
	}
	traced := time.Since(start)
	gets1, news1 := msg.PoolStats()

	n := float64(len(mix))
	self := tr.selfTimes()
	var loopNs float64
	for _, name := range []string{"system.loop", "system.drain"} {
		for _, ms := range self[name] {
			loopNs += ms * 1e6
		}
	}
	for _, name := range []string{"new", "begin", "loop", "drain", "verify", "imagehash"} {
		lm.put("system."+name+"_ms_mesh", median(self["system."+name]), "ms")
	}
	lm.put("sim.events_per_op", float64(events)/n, "ev/op")
	lm.put("sim.pending_mean", ratio(float64(pendSum), float64(pendN)), "ev")
	lm.put("sim.pending_peak", float64(peak), "ev")
	lm.put("sim.heap_grows", float64(heapGrows()-grows0), "count")
	lm.put("sim.ns_per_event", ratio(loopNs, float64(events)), "ns")
	lm.put("sim.mem_ops_per_s", float64(ops)/traced.Seconds(), "op/s")
	lm.put("noc.msgs_per_op", float64(msgs)/n, "msg/op")
	lm.put("noc.bytes_per_op", float64(nbytes)/n, "B/op")
	lm.put("noc.latency_cycles", ratio(latWeighted, float64(msgs)), "cycle")
	lm.put("noc.msgs_per_event", ratio(float64(msgs), float64(events)), "msg/ev")
	lm.put("ctrl.cycles_per_op", float64(cycles)/n, "cycle/op")
	lm.put("ctrl.misses_per_op", float64(misses)/n, "miss/op")
	lm.put("ctrl.c2c_per_op", float64(c2c)/n, "xfer/op")
	lm.put("ctrl.l2_misses_per_op", float64(l2)/n, "miss/op")
	lm.put("ft.timeouts_per_op", float64(timeouts)/n, "count/op")
	lm.put("ft.reissues_per_op", float64(reissues)/n, "count/op")
	lm.put("obs.events_per_op", float64(obsEvents)/n, "ev/op")
	lm.put("msg.pool_hit_ratio", 1-ratio(float64(news1-news0), float64(gets1-gets0)), "ratio")
	cov := tr.coverage("mesh.op")
	lm.put("trace.mesh_span_coverage", cov, "ratio")
	lm.put("trace.mesh_overhead_ratio", untraced.Seconds()/traced.Seconds(), "ratio")
	if cov < 0.9 {
		t.fail(fmt.Errorf("mesh layer spans cover %.3f of op wall time, want >= 0.9", cov))
	}
	return ratio(float64(pendSum), float64(pendN))
}

func heapGrows() uint64 {
	_, grows := sim.HeapStats()
	return grows
}

// tracedGates runs one gates pass through the public API and one traced
// through the coverage and mc layers, and compares their reports.
func tracedGates(o options, tr *tracer, t *tally, lm layerMetrics) {
	s, err := newGatesSetup(o.seed)
	if err != nil {
		t.ops(1, err)
		return
	}
	start := time.Now()
	want, _, err := gatesPass(s, &opTimer{})
	untraced := time.Since(start)
	if err != nil {
		t.ops(1, err)
		return
	}
	var wantJSON []byte
	if err := want.sameAs(&wantJSON); err != nil {
		t.fail(err)
	}

	ctx := context.Background()
	workers := runner.Parallelism(s.cov.Parallelism)
	start = time.Now()
	pass := tr.begin("gates.pass", 0)
	var g gatesReports
	campaign := func(name string, fn func(parent func() int) (*repro.CoverageReport, error)) *repro.CoverageReport {
		sp := tr.begin(name, pass)
		defer tr.end(sp)
		rep, err := fn(func() int { return sp })
		if err != nil {
			t.fail(fmt.Errorf("traced %s: %w", name, err))
			return nil
		}
		return rep
	}
	for _, p := range []repro.Protocol{repro.FtDirCMP, repro.DirCMP} {
		cfg := s.with(p)
		rep := campaign("gates.coverage", func(parent func() int) (*repro.CoverageReport, error) {
			return coverage.RunContext(ctx, coverageRun(tr, parent, cfg, "uniform"), coverage.Options{Parallelism: cfg.Parallelism})
		})
		if rep != nil {
			rep.Protocol, rep.Workload = p.String(), "uniform"
		}
		if p == repro.FtDirCMP {
			g.CoverageFt = rep
		} else {
			g.CoverageDir = rep
		}
	}
	uniform, _ := workload.ByName("uniform")
	g.TileDeath = campaign("gates.tile", func(parent func() int) (*repro.CoverageReport, error) {
		cfg := s.with(repro.FtDirCMP)
		return coverage.RunStructuralContext(ctx, tileDeathRun(tr, parent, cfg, uniform), coverage.StructuralOptions{
			Parallelism:     cfg.Parallelism,
			MaxSlotsPerType: gatesTileCap,
			Tiles:           cfg.MeshWidth * cfg.MeshHeight,
			VictimWrites:    victimWriteSets(cfg, uniform),
		})
	})
	if g.TileDeath != nil {
		g.TileDeath.Protocol, g.TileDeath.Workload = repro.FtDirCMP.String(), "uniform"
	}

	handoff, _ := workload.ByName(repro.InterleaveWorkload)
	var mcWall time.Duration
	alloc0 := totalAlloc()
	explore := func(p repro.Protocol) *repro.InterleaveReport {
		cfg := s.mc
		cfg.Protocol = p
		sp := tr.begin("mc.explore", pass)
		layerStart := time.Now()
		t0 := layerStart
		rep, err := mc.ExploreContext(ctx, internalConfig(cfg), handoff, mc.Options{
			FaultBudget: gatesFaultBudget,
			Parallelism: cfg.Parallelism,
			Progress: func(explored, frontier int) {
				now := time.Now()
				tr.mark("mc.layer", sp, layerStart, now)
				layerStart = now
			},
		})
		tr.end(sp)
		mcWall += time.Since(t0)
		if err != nil {
			t.fail(fmt.Errorf("traced exploration %s: %w", p, err))
		}
		return rep
	}
	g.Interleave = explore(repro.FtDirCMP)
	g.Counter = explore(repro.DirCMP)
	mcAlloc := totalAlloc() - alloc0
	if g.Counter != nil && len(g.Counter.Violations) > 0 {
		cfg := s.mc
		cfg.Protocol = repro.DirCMP
		var replays [2]*mc.ReplayResult
		for i := range replays {
			sp := tr.begin("mc.replay", pass)
			replays[i], err = mc.Replay(internalConfig(cfg), handoff, g.Counter.Violations[0].Schedule)
			tr.end(sp)
			if err != nil {
				t.fail(fmt.Errorf("traced replay: %w", err))
			}
		}
		g.Replay = replays[0]
	}
	tr.end(pass)
	traced := time.Since(start)

	if g.CoverageFt == nil || g.CoverageDir == nil || g.TileDeath == nil || g.Interleave == nil || g.Counter == nil {
		t.ops(1, fmt.Errorf("traced gates pass incomplete"))
		return
	}
	got := &g
	if err := got.sameAs(&wantJSON); err != nil {
		t.fail(fmt.Errorf("traced %w", err))
	}
	t.ops(want.ops(), want.verdicts(s))
	t.ops(got.ops(), got.verdicts(s))

	self := tr.selfTimes()
	for _, name := range []string{"new", "begin", "loop", "drain", "verify", "imagehash"} {
		lm.put("system."+name+"_ms", median(self["system."+name]), "ms")
	}
	lm.put("obs.recorder_ms", median(self["obs.recorder"]), "ms")
	var busy, capacity float64
	for _, name := range []string{"gates.coverage", "gates.tile"} {
		jobs, wall := tr.childTime(name)
		busy += jobs
		capacity += wall * float64(workers)
	}
	lm.put("runner.efficiency", ratio(busy, capacity), "ratio")
	lm.put("runner.idle_ms", capacity-busy, "ms")
	runMs := tr.durations("gates.op")
	lm.put("coverage.runs", float64(len(runMs)), "count")
	lm.put("coverage.run_ms_p50", median(runMs), "ms")
	states := g.Interleave.StatesExplored + g.Counter.StatesExplored
	paths := g.Interleave.Transitions + g.Counter.Transitions
	lm.put("mc.states", float64(states), "count")
	lm.put("mc.paths", float64(paths), "count")
	lm.put("mc.ns_per_path", ratio(float64(mcWall.Nanoseconds()), float64(paths)), "ns/path")
	lm.put("mc.alloc_bytes_per_path", ratio(float64(mcAlloc), float64(paths)), "B/path")
	lm.put("mc.states_per_s", ratio(float64(states), mcWall.Seconds()), "state/s")
	cov := tr.coverage("gates.op")
	lm.put("trace.gates_span_coverage", cov, "ratio")
	lm.put("trace.gates_overhead_ratio", untraced.Seconds()/traced.Seconds(), "ratio")
	if cov < 0.9 {
		t.fail(fmt.Errorf("gates layer spans cover %.3f of op wall time, want >= 0.9", cov))
	}
}

// probes times the two hottest layers in isolation, from outside.
func probes(t *tally, lm layerMetrics, pendingMean float64) {
	depth := int(math.Round(pendingMean))
	if depth < 1 {
		depth = 1
	}
	lm.put("sim.probe_ns_per_event", simProbe(depth, 2_000_000), "ns")
	ns, err := nocProbe(200_000)
	if err != nil {
		t.fail(err)
	}
	lm.put("noc.probe_ns_per_msg", ns, "ns")
}

// simProbe keeps depth events pending in a bare sim.Engine, each event
// rescheduling itself 1 to 64 cycles ahead through ScheduleCall, and
// returns the host nanoseconds per Step.
func simProbe(depth, steps int) float64 {
	eng := sim.NewEngine()
	x := uint64(0x9e3779b97f4a7c15)
	var fire func(arg any, tick uint64)
	fire = func(any, uint64) {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		eng.ScheduleCall(1+x%64, fire, nil, 0)
	}
	for i := 0; i < depth; i++ {
		eng.ScheduleCall(uint64(1+i%64), fire, nil, 0)
	}
	start := time.Now()
	for i := 0; i < steps; i++ {
		eng.Step()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(steps)
}

// nocProbe sends messages between random pairs of the Table-4 4x4 mesh's
// tiles, 64 in flight at a time, with handlers that do nothing, and returns
// the host nanoseconds per delivered message.
func nocProbe(messages int) (float64, error) {
	cfg := internalConfig(repro.DefaultConfig()).Net
	cfg.Width, cfg.Height = 4, 4
	eng := sim.NewEngine()
	net, err := noc.New(eng, cfg, nil, nil)
	if err != nil {
		return 0, err
	}
	delivered := 0
	for r := 0; r < 16; r++ {
		if err := net.Attach(msg.NodeID(r+1), r, func(*msg.Message) { delivered++ }); err != nil {
			return 0, err
		}
	}
	x := uint64(0x2545f4914f6cdd1d)
	start := time.Now()
	for sent := 0; sent < messages; {
		for i := 0; i < 64 && sent < messages; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			m := msg.NewMessage()
			m.Src, m.Dst = msg.NodeID(1+x%16), msg.NodeID(1+(x>>8)%16)
			m.Type = msg.GetS
			if x&1 == 0 {
				m.Type = msg.Data
			}
			net.Send(m)
			sent++
		}
		if err := eng.Run(0); err != nil {
			return 0, err
		}
	}
	ns := float64(time.Since(start).Nanoseconds())
	if delivered != messages {
		return 0, fmt.Errorf("noc probe delivered %d of %d messages", delivered, messages)
	}
	return ns / float64(messages), nil
}

// tracedServe runs the serve pass: open-loop load at the base rate with a
// span per request and per API call, the fleet's service traces for the
// jobs it touched, the router-hop probe, span build and export times, and
// the max-rate ladder.
func tracedServe(o options, tr *tracer, t *tally, lm layerMetrics) {
	env, err := setupServe(o.dir, o.seed)
	if err != nil {
		t.ops(1, err)
		return
	}
	defer func() {
		if err := env.close(); err != nil {
			t.fail(err)
		}
	}()
	n := int(serveRate * o.serveTraced)
	res := env.load(schedule(o.seed, 0, n), serveRate, tr)
	t.add(&res.tally)
	hits, misses, rejected := env.f.cacheStats()
	lm.put("serve.cache_hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio")
	lm.put("serve.rejected_ratio", ratio(float64(rejected), float64(hits+misses+rejected)), "ratio")
	lm.put("load.late_ms_p90", nearestRank(sorted(res.lateMs), 90), "ms")
	lm.put("span.export_ms_p50", median(res.exportMs), "ms")

	ids := append([]string(nil), res.executed...)
	for _, w := range env.warm {
		ids = append(ids, w.id)
	}
	phases := map[string][]float64{}
	for _, id := range ids {
		data, err := env.c.get(env.f.router + "/v1/experiments/" + id + "/trace?format=service")
		if err == nil {
			err = servicePhases(data, phases)
		}
		if err != nil {
			t.fail(fmt.Errorf("service trace of %s: %w", id, err))
			return
		}
	}
	for _, p := range []string{"admission", "cache_lookup", "queue_wait", "execute", "encode", "store"} {
		lm.put("serve."+p+"_ms_p50", median(phases[p]), "ms")
	}
	lm.put("serve.queue_wait_ms_p90", nearestRank(sorted(phases["queue_wait"]), 90), "ms")
	lm.put("router.proxy_ms_p50", median(phases[serve.SpanProxy]), "ms")

	hop, err := routerHop(env)
	if err != nil {
		t.fail(err)
	}
	lm.put("router.hop_ms_p50", hop, "ms")
	build, err := spanBuild(o.seed)
	if err != nil {
		t.fail(err)
	}
	lm.put("span.build_ms_p50", build, "ms")
	lm.put("load.max_rate_per_s", ladder(env, o, n), "req/s")
}

// servicePhases adds the duration of every service span of one trace to
// phases, in milliseconds. Below the per-request root every service span is
// a leaf (proxy is the router hop into the backend, up to admission), so a
// duration is a self time.
func servicePhases(data []byte, phases map[string][]float64) error {
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Ph   string `json:"ph"`
			Dur  int64  `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return err
	}
	for _, e := range doc.TraceEvents {
		if e.Cat == "service" && e.Ph == "X" && e.Name != "request" {
			phases[e.Name] = append(phases[e.Name], float64(e.Dur)/1e3)
		}
	}
	return nil
}

// routerHop times the same cached GET through the router and directly at
// its owning shard, alternating, and returns the difference of the medians.
func routerHop(env *serveEnv) (float64, error) {
	id := env.warm[0].id
	direct := env.f.urls[serve.ShardOf(id, serveShards)] + "/v1/experiments/" + id
	routed := env.f.router + "/v1/experiments/" + id
	var viaRouter, viaShard []float64
	for i := 0; i < 50; i++ {
		for _, u := range []string{routed, direct} {
			t := time.Now()
			data, err := env.c.get(u)
			ms := msSince(t)
			if err != nil {
				return 0, fmt.Errorf("router hop probe: %w", err)
			}
			if !bytes.Contains(data, []byte(id)) {
				return 0, fmt.Errorf("router hop probe: %s answered another job", u)
			}
			if u == routed {
				viaRouter = append(viaRouter, ms)
			} else {
				viaShard = append(viaShard, ms)
			}
		}
	}
	return median(viaRouter) - median(viaShard), nil
}

// spanBuild times span.Build on the event streams of quick runs shaped like
// serve's exports, collected as the public API collects them.
func spanBuild(seed uint64) (float64, error) {
	cfg := repro.QuickConfig()
	cfg.OpsPerCore = serveExportOps
	w, _ := workload.ByName("uniform")
	topo := proto.Topology{Tiles: cfg.MeshWidth * cfg.MeshHeight, Mems: cfg.MemControllers, LineSize: cfg.LineSize}
	var ms []float64
	for i := 0; i < 5; i++ {
		cfg.Seed = runner.Seed(seed, 5_000_000+i)
		sysCfg := internalConfig(cfg)
		rec := obs.NewRecorder(0)
		rec.EnableMessageFeed()
		var events []obs.Event
		rec.SetSink(func(e obs.Event) { events = append(events, e) })
		sysCfg.Obs = rec
		s, err := system.New(sysCfg)
		if err != nil {
			return 0, err
		}
		if _, err := s.Run(w); err != nil {
			return 0, fmt.Errorf("span build run: %w", err)
		}
		t := time.Now()
		spans := span.Build(events, topo)
		ms = append(ms, msSince(t))
		if len(spans) == 0 {
			return 0, fmt.Errorf("span build: no spans from %d events", len(events))
		}
	}
	return median(ms), nil
}

// ladder offers the mix at each rate of serveLadder for o.ladderStep
// seconds and returns the highest rate at which every request was answered
// correctly, p90 latency met the limit, and the last answer came within the
// limit of the schedule's end (no growing backlog). The ladder probes
// capacity: refusals at a rate fail that step, not the run.
func ladder(env *serveEnv, o options, next int) float64 {
	best := 0.0
	for _, mult := range serveLadder {
		rate := serveRate * mult
		n := int(rate * o.ladderStep)
		res := env.load(schedule(o.seed, next, n), rate, nil)
		next += n
		sched := float64(n-1) / rate
		if res.failed > 0 || nearestRank(sorted(res.latMs), 90) > serveLimitMs || res.elapsed > sched+serveLimitMs/1e3 {
			break
		}
		best = rate
	}
	return best
}
