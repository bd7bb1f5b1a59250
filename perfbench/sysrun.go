package main

import (
	"fmt"

	"repro"
	"repro/internal/coverage"
	"repro/internal/fault"
	"repro/internal/msg"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/workload"
)

// The traced run drives internal/system directly so that it can time every
// call into the layer. internalConfig, injectorOf and victimWriteSets mirror
// unexported code of package repro; the traced run checks that its digests
// and reports equal the public API's byte for byte, so any drift between
// the copies and the originals fails the run instead of skewing it.

// internalConfig mirrors repro.Config.toInternal.
func internalConfig(c repro.Config) system.Config {
	var p system.Protocol
	switch c.Protocol {
	case repro.DirCMP:
		p = system.DirCMP
	case repro.TokenCMP:
		p = system.TokenCMP
	case repro.FtTokenCMP:
		p = system.FtTokenCMP
	default:
		p = system.FtDirCMP
	}
	routing := noc.RoutingXY
	if c.UnorderedNetwork {
		routing = noc.RoutingAdaptive
	}
	bufferFlits := 0
	if c.DetailedNetwork {
		bufferFlits = 16
		if c.RouterBufferFlits > 0 {
			bufferFlits = c.RouterBufferFlits
		}
	}
	return system.Config{
		Protocol:   p,
		MeshWidth:  c.MeshWidth,
		MeshHeight: c.MeshHeight,
		Mems:       c.MemControllers,
		Params: proto.Params{
			LineSize:           c.LineSize,
			L1Size:             c.L1Size,
			L1Ways:             c.L1Ways,
			L2Size:             c.L2BankSize,
			L2Ways:             c.L2Ways,
			L1HitLatency:       c.L1HitLatency,
			L2HitLatency:       c.L2HitLatency,
			MemLatency:         c.MemLatency,
			MigratoryOpt:       c.MigratoryOpt,
			SerialBits:         c.SerialNumberBits,
			LostRequestTimeout: c.LostRequestTimeout,
			LostUnblockTimeout: c.LostUnblockTimeout,
			LostAckBDTimeout:   c.LostAckBDTimeout,
			BackupTimeout:      c.BackupTimeout,
			DisablePiggyback:   c.DisableAckOPiggyback,
		},
		Net: noc.Config{
			HopLatency:      c.HopLatency,
			LocalLatency:    c.LocalLatency,
			FlitBytes:       c.FlitBytes,
			ControlSize:     c.ControlMsgSize,
			DataSize:        c.DataMsgSize,
			Routing:         routing,
			RoutingSeed:     c.Seed,
			DetailedRouters: c.DetailedNetwork,
			BufferFlits:     bufferFlits,
		},
		OpsPerCore:     c.OpsPerCore,
		ThinkTime:      c.ThinkTime,
		Seed:           c.Seed,
		Limit:          c.CycleLimit,
		CheckIntegrity: c.CheckIntegrity,
	}
}

// injectorOf mirrors the uniform-loss part of repro.Config's injector, the
// only fault model the mesh mix uses.
func injectorOf(c repro.Config) fault.Injector {
	if c.FaultRatePerMillion <= 0 {
		return nil
	}
	if c.FaultBurstLen > 1 || c.CorruptInsteadOfDrop {
		panic("perfbench: the traced path models uniform losses only")
	}
	return fault.NewRate(c.FaultRatePerMillion, c.FaultSeed)
}

// sysStats is what one traced simulation reports.
type sysStats struct {
	cycles, events uint64
	pendSum, pendN uint64
	pendPeak       int
	image          uint64
	done           bool // every core finished its stream
	sys            *system.System
}

// runSystem executes one simulation the way System.Run does for a run with
// no structural fault and a directory protocol, with a span around each
// call into the layer: New, Begin, Engine().RunUntil (the event loop),
// Engine().Run (the drain), VerifyQuiescent and MemoryImageHash. With
// samplePending the loop predicate also samples the event queue's depth
// before every event.
func runSystem(tr *tracer, parent int, cfg system.Config, w workload.Workload, samplePending bool) (sysStats, error) {
	var st sysStats
	sp := tr.begin("system.new", parent)
	s, err := system.New(cfg)
	tr.end(sp)
	if err != nil {
		return st, err
	}
	st.sys = s
	sp = tr.begin("system.begin", parent)
	s.Begin(w)
	tr.end(sp)

	eng := s.Engine()
	pred := s.AllDone
	if samplePending {
		pred = func() bool {
			p := eng.Pending()
			st.pendSum += uint64(p)
			st.pendN++
			if p > st.pendPeak {
				st.pendPeak = p
			}
			return s.AllDone()
		}
	}
	limit := cfg.Limit
	if limit == 0 {
		limit = 200_000_000 // system.New's default
	}
	sp = tr.begin("system.loop", parent)
	finished := eng.RunUntil(limit, pred)
	tr.end(sp)
	st.cycles = eng.Now()
	st.events = eng.EventsExecuted()
	if !finished {
		if eng.Pending() == 0 {
			return st, s.DeadlockDump()
		}
		return st, fmt.Errorf("%w (%d cycles)", system.ErrCycleLimit, limit)
	}
	st.done = true
	sp = tr.begin("system.drain", parent)
	err = eng.Run(limit)
	tr.end(sp)
	st.events = eng.EventsExecuted()
	if err != nil {
		return st, fmt.Errorf("system: drain: %w", err)
	}
	sp = tr.begin("system.verify", parent)
	err = s.VerifyQuiescent()
	tr.end(sp)
	if err != nil {
		return st, err
	}
	sp = tr.begin("system.imagehash", parent)
	st.image = s.MemoryImageHash()
	tr.end(sp)
	return st, nil
}

// newRecorder builds the small event ring the public API's campaign run
// functions attach to every run, for deadlock dumps.
func newRecorder(tr *tracer, parent int) *obs.Recorder {
	sp := tr.begin("obs.recorder", parent)
	defer tr.end(sp)
	return obs.NewRecorder(4096)
}

// outcomeMetrics copies the observability figures a coverage outcome
// carries, as the public API's run functions do.
func outcomeMetrics(tr *tracer, parent int, out *coverage.Outcome, rec *obs.Recorder) {
	sp := tr.begin("obs.metrics", parent)
	defer tr.end(sp)
	if m := rec.Metrics(); m != nil {
		out.FaultsInjected = m.FaultsInjected
		out.FaultsRecovered = m.FaultsRecovered
		out.RecoveryLatencyMax = m.RecoveryLatency.Max()
		for _, k := range obs.AllTimeoutKinds() {
			out.Timeouts[k] = m.TimeoutsByKind[k]
		}
	}
}

// coverageRun mirrors repro.CoverageContext's run function with a span per
// run under parent and per layer call under the run.
func coverageRun(tr *tracer, parent func() int, cfg repro.Config, workloadName string) coverage.RunFunc {
	c := cfg
	c.CheckIntegrity = true
	return func(inj fault.Injector) coverage.Outcome {
		op := tr.begin("gates.op", parent())
		defer tr.end(op)
		w, err := workload.ByName(workloadName)
		if err != nil {
			return coverage.Outcome{Err: err.Error()}
		}
		sysCfg := internalConfig(c)
		sysCfg.Injector = inj
		sysCfg.Obs = newRecorder(tr, op)
		st, rerr := runSystem(tr, op, sysCfg, w, false)
		if st.sys == nil {
			return coverage.Outcome{Err: rerr.Error()}
		}
		out := coverage.Outcome{Cycles: st.cycles}
		outcomeMetrics(tr, op, &out, sysCfg.Obs)
		if rerr != nil {
			out.Err = rerr.Error()
			return out
		}
		out.MemHash = st.image
		return out
	}
}

// tileDeathRun mirrors repro.TileDeathCoverageContext's run function. A
// tile death changes how System.Run ends (the survivors may have to
// declare the death and drain again), through state the package does not
// export, so the run is one System.Run span here.
func tileDeathRun(tr *tracer, parent func() int, cfg repro.Config, w workload.Workload) coverage.RunFunc {
	c := cfg
	c.CheckIntegrity = true
	return func(inj fault.Injector) coverage.Outcome {
		op := tr.begin("gates.op", parent())
		defer tr.end(op)
		sysCfg := internalConfig(c)
		sysCfg.Injector = inj
		sysCfg.Obs = newRecorder(tr, op)
		sp := tr.begin("system.new", op)
		s, err := system.New(sysCfg)
		tr.end(sp)
		if err != nil {
			return coverage.Outcome{Err: err.Error()}
		}
		sp = tr.begin("system.run", op)
		st, rerr := s.Run(w)
		tr.end(sp)
		out := coverage.Outcome{Cycles: st.Cycles}
		outcomeMetrics(tr, op, &out, sysCfg.Obs)
		rcv := s.Recovery()
		out.DeathDeclared = rcv.Declared
		out.LinesReconstructed = rcv.LinesReconstructed
		out.LinesUnrecoverable = rcv.LinesUnrecoverable
		out.UnrecoverableAddrs = rcv.UnrecoverableAddrs
		if rcv.Declared && rcv.ReconstructedCycle >= rcv.DeathCycle {
			out.ReconstructLatency = rcv.ReconstructedCycle - rcv.DeathCycle
		}
		if rerr != nil {
			out.Err = rerr.Error()
			return out
		}
		sp = tr.begin("system.imagehash", op)
		out.MemHash = s.MemoryImageHash()
		out.Image = s.MemoryImage()
		tr.end(sp)
		return out
	}
}

// victimWriteSets mirrors the unexported helper of the same name in package
// repro: per tile, the line addresses its workload stream writes.
func victimWriteSets(cfg repro.Config, w workload.Workload) func(tile int) map[msg.Addr]bool {
	tiles := cfg.MeshWidth * cfg.MeshHeight
	master := sim.NewRNG(cfg.Seed)
	sets := make([]map[msg.Addr]bool, tiles)
	for i := 0; i < tiles; i++ {
		st := w.Stream(i, tiles, cfg.OpsPerCore, master.Fork(uint64(i)+1))
		set := make(map[msg.Addr]bool)
		for {
			op, ok := st.Next()
			if !ok {
				break
			}
			if op.Write {
				set[msg.Addr(op.Line)*msg.Addr(cfg.LineSize)] = true
			}
		}
		sets[i] = set
	}
	return func(tile int) map[msg.Addr]bool { return sets[tile] }
}
