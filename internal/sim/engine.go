// Package sim provides a deterministic discrete-event simulation engine:
// the clock every other package runs on.
//
// Events are executed in order of (time, insertion sequence), so two runs
// with the same inputs produce identical event interleavings — the
// property the whole module's reproducibility (golden traces, byte-stable
// experiment output, parallel sweeps) rests on. All protocol controllers,
// the network model and the fault injector are driven by a single Engine;
// Engine.Now also timestamps the structured event log (package obs).
//
// The event queue (queue.go) keeps event payloads in a slab whose free
// slots form an intrusive chain, so scheduling is allocation-free once the
// slab reaches the simulation's peak queue depth. Ordering lives outside
// the slab. Events due within 64 cycles go into a timing wheel: one FIFO
// per cycle plus an occupancy bitmask, so finding, adding and removing them
// is O(1). Later events, chiefly fault-detection timeouts thousands of
// cycles out, go into a 4-ary heap of small (at, seq, slot) keys. Firing
// order is exactly (time, sequence) either way. Callers that would
// otherwise allocate a closure per event can use ScheduleCall, which
// carries a pointer-shaped argument and a tick through the event instead
// of capturing them.
//
// Besides the raw event queue the package provides the two utilities the
// protocols build their behaviour from: Timer, a restartable one-shot
// alarm used for every fault-detection timeout, and RNG, a small seeded
// generator (splitmix64) giving each consumer its own independent,
// reproducible stream.
package sim

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Event-queue health counters, process-wide across every engine: heapPushes
// counts scheduled events, heapGrows the pushes that grew the slab (the
// payload array behind an engine's queue) instead of reusing a free slot.
// Each engine counts in plain fields and folds its counts in here when Run
// or RunUntil returns, so the hot path touches no shared cache line.
// ftserve exports both as /metrics gauges.
var heapPushes, heapGrows atomic.Uint64

// HeapStats reports how many events were scheduled and how many of those
// pushes grew the slab, since process start, over every engine whose Run or
// RunUntil has returned.
func HeapStats() (pushes, grows uint64) {
	return heapPushes.Load(), heapGrows.Load()
}

// ErrLimitReached is returned by Run when the cycle limit is hit before the
// event queue drains. Callers typically treat this as a deadlock or as an
// over-long simulation, depending on context.
var ErrLimitReached = errors.New("sim: cycle limit reached")

// runFunc adapts a plain func() stored in arg to the event callback shape.
// Boxing a func value into an interface stores its (pointer-shaped) value
// directly, so Schedule stays allocation-free beyond the caller's closure.
func runFunc(arg any, _ uint64) { arg.(func())() }

// Engine is a deterministic discrete-event simulator clocked in cycles.
// The zero value is not usable; create one with NewEngine.
type Engine struct {
	q      queue
	now    uint64
	seq    uint64
	events uint64

	// Model-checking hooks (see choice.go). chooser is nil in normal runs;
	// halted latches once a chooser returns Halt. The scratch fields are
	// reused across choice points so gathering choices stays cheap.
	chooser       Chooser
	halted        bool
	seenScratch   map[uint64]bool
	headScratch   []choiceHead
	choiceScratch []Choice
	farScratch    []farKey
}

// NewEngine returns an empty engine at cycle 0.
func NewEngine() *Engine {
	return &Engine{q: newQueue()}
}

// Now returns the current simulation time in cycles.
func (e *Engine) Now() uint64 { return e.now }

// EventsExecuted returns the total number of events executed so far.
func (e *Engine) EventsExecuted() uint64 { return e.events }

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return e.q.n }

// Schedule runs fn delay cycles from now. A delay of zero runs fn later in
// the current cycle (after all events already scheduled for this cycle).
func (e *Engine) Schedule(delay uint64, fn func()) {
	e.seq++
	e.q.push(e.now, e.now+delay, e.seq, runFunc, fn, 0)
}

// ScheduleAt runs fn at absolute cycle at. Scheduling in the past is a
// programming error and panics.
func (e *Engine) ScheduleAt(at uint64, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: ScheduleAt(%d) is %d cycles in the past (current cycle %d)", at, e.now-at, e.now))
	}
	e.seq++
	e.q.push(e.now, at, e.seq, runFunc, fn, 0)
}

// ScheduleCall runs fn(arg, tick) delay cycles from now. Unlike Schedule it
// needs no closure: fn is typically a package-level function and arg a
// long-lived (often pooled) object, so scheduling allocates nothing —
// pointer-shaped args box into the event's interface field without a heap
// allocation. tick rides along untouched; timers use it to detect stale
// firings.
func (e *Engine) ScheduleCall(delay uint64, fn func(arg any, tick uint64), arg any, tick uint64) {
	e.seq++
	e.q.push(e.now, e.now+delay, e.seq, fn, arg, tick)
}

// ScheduleCallAt is ScheduleCall at an absolute cycle. Scheduling in the
// past is a programming error and panics.
func (e *Engine) ScheduleCallAt(at uint64, fn func(arg any, tick uint64), arg any, tick uint64) {
	if at < e.now {
		panic(fmt.Sprintf("sim: ScheduleCallAt(%d) is %d cycles in the past (current cycle %d, event tick %d)", at, e.now-at, e.now, tick))
	}
	e.seq++
	e.q.push(e.now, at, e.seq, fn, arg, tick)
}

// Step executes the next event, advancing the clock to its timestamp.
// It returns false when the queue is empty or the engine has been halted by
// a chooser. When a chooser is installed and the earliest pending event is
// a choice event, the step becomes a decision point: the chooser picks
// which deliverable event fires (see choice.go).
func (e *Engine) Step() bool {
	if e.q.n == 0 {
		return false
	}
	return e.step(e.q.head(e.now))
}

// step executes slot i, the earliest pending event, due at cycle at.
func (e *Engine) step(i int32, at uint64, far bool) bool {
	if e.halted {
		return false
	}
	s := &e.q.slots[i]
	if e.chooser != nil && s.choice {
		return e.stepChoice(at)
	}
	fn, arg, tick := s.fn, s.arg, s.tick
	e.q.remove(i, at, far)
	e.q.release(i)
	e.now = at
	e.events++
	fn(arg, tick)
	return true
}

// Run executes events until the queue drains, the engine halts, or the
// clock would pass limit. It returns nil when the queue drained or the
// engine halted, or ErrLimitReached if events remained past the limit. A
// limit of 0 means no limit.
func (e *Engine) Run(limit uint64) error {
	defer e.flushStats()
	for e.q.n > 0 {
		i, at, far := e.q.head(e.now)
		if limit != 0 && at > limit {
			return fmt.Errorf("%w: %d events pending at cycle %d", ErrLimitReached, e.q.n, limit)
		}
		if !e.step(i, at, far) {
			return nil
		}
	}
	return nil
}

// RunUntil executes events while pred returns false, stopping when the
// predicate becomes true, the queue drains, the engine halts, or the limit
// passes. It returns true when pred was satisfied.
func (e *Engine) RunUntil(limit uint64, pred func() bool) bool {
	defer e.flushStats()
	for !pred() {
		if e.q.n == 0 {
			return pred()
		}
		i, at, far := e.q.head(e.now)
		if limit != 0 && at > limit {
			return pred()
		}
		if !e.step(i, at, far) {
			return pred()
		}
	}
	return true
}

// flushStats adds the engine's queue counters into the process totals and
// resets them.
func (e *Engine) flushStats() {
	if e.q.pushes != 0 {
		heapPushes.Add(e.q.pushes)
		heapGrows.Add(e.q.grows)
		e.q.pushes, e.q.grows = 0, 0
	}
}
