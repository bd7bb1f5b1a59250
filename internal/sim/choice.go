// Model-checking choice points.
//
// In a normal run the engine fires events strictly in (time, sequence)
// order, which is exactly one interleaving of the protocol. The model
// checker (internal/mc) needs to explore the others. The hook is small:
// producers mark selected events as *choice events* (the network marks
// final message deliveries, see noc.Config.ChoiceDelivery), and when a
// Chooser is installed, any step whose earliest pending event is a choice
// event is resolved by the chooser instead of by timestamp order.
//
// The engine does not offer every pending choice event: each choice event
// carries a channel key, and only the head (earliest by (time, sequence))
// event of each channel is eligible. For the network this encodes the
// point-to-point ordering guarantee the protocols are built on — messages
// on the same (source, destination, class) channel may not overtake each
// other, so delivering a non-head event would explore physically
// impossible interleavings and report false violations.
//
// Time under a chooser stays monotone but becomes an abstraction: the
// chosen event fires at the timestamp of the earliest pending choice
// (the queue minimum), not at its own nominal arrival time. Non-choice
// events (timers, core issue slots, intermediate hops) still fire in
// timestamp order when they are the queue minimum, so a timeout only fires
// on paths where every earlier-timed delivery choice has been consumed —
// bounded-delay network semantics. Arbitrarily late delivery beyond a
// timeout is modeled explicitly as a dropped message (Decision.Drop)
// followed by the protocol's reissue path.
package sim

// Choice is one eligible decision at a choice point: the head event of one
// ordered channel. Key identifies the channel, Info is the opaque payload
// the producer attached (the network uses the message fingerprint), At is
// the event's nominal timestamp, and CanDrop reports whether the producer
// supplied a drop path for it.
type Choice struct {
	Key     uint64
	Info    uint64
	At      uint64
	CanDrop bool
}

// Decision is a chooser's answer: fire choices[Index] (with Drop selecting
// its loss path instead of delivery), or Halt the engine without firing
// anything — Step returns false and the run can be inspected mid-state.
type Decision struct {
	Index int
	Drop  bool
	Halt  bool
}

// Chooser resolves choice points. choices is ordered deterministically (by
// the events' (time, sequence)) and is only valid for the duration of the
// call — the engine reuses the backing array.
type Chooser interface {
	Choose(now uint64, choices []Choice) Decision
}

// SetChooser installs (or with nil removes) the engine's chooser. With no
// chooser installed, choice events fire like plain events in timestamp
// order, so a system built with choice scheduling behaves identically to a
// normal run.
func (e *Engine) SetChooser(c Chooser) { e.chooser = c }

// Halted reports whether a chooser halted the engine. A halted engine
// executes no further events.
func (e *Engine) Halted() bool { return e.halted }

// ScheduleChoiceAt schedules a choice event at absolute cycle at. fn is the
// delivery callback, dropFn (optional) the loss callback; key names the
// event's ordered channel and info is carried to the chooser verbatim.
// Scheduling in the past is a programming error and panics, as with
// ScheduleCallAt.
func (e *Engine) ScheduleChoiceAt(at uint64, fn, dropFn func(arg any, tick uint64), arg any, tick, key, info uint64) {
	if at < e.now {
		e.ScheduleCallAt(at, fn, arg, tick) // panics with the standard message
		return
	}
	e.seq++
	i := e.q.push(e.now, at, e.seq, fn, arg, tick)
	e.q.slots[i].choice = true
	if int(i) >= len(e.q.side) {
		e.q.side = append(e.q.side, make([]choicePayload, len(e.q.slots)-len(e.q.side))...)
	}
	e.q.side[i] = choicePayload{key: key, info: info, dropFn: dropFn}
}

// stepChoice resolves one choice point: gather the per-channel head events,
// present them to the chooser in deterministic order, and fire (or drop)
// the chosen one at minAt, the timestamp of the earliest pending event.
func (e *Engine) stepChoice(minAt uint64) bool {
	q := &e.q
	if e.seenScratch == nil {
		e.seenScratch = make(map[uint64]bool)
	}
	seen := e.seenScratch
	clear(seen)
	heads := e.headScratch[:0]
	choices := e.choiceScratch[:0]
	e.farScratch = q.inOrder(e.now, e.farScratch, func(i int32, at uint64, far bool) {
		if !q.slots[i].choice {
			return
		}
		c := &q.side[i]
		if seen[c.key] {
			return
		}
		seen[c.key] = true
		heads = append(heads, choiceHead{slot: i, at: at, far: far})
		choices = append(choices, Choice{Key: c.key, Info: c.info, At: at, CanDrop: c.dropFn != nil})
	})
	e.headScratch, e.choiceScratch = heads, choices

	d := e.chooser.Choose(minAt, choices)
	if d.Halt {
		e.halted = true
		return false
	}
	if d.Index < 0 || d.Index >= len(heads) {
		panic("sim: chooser decision index out of range")
	}
	h := heads[d.Index]
	s := &q.slots[h.slot]
	fn, arg, tick, dropFn := s.fn, s.arg, s.tick, q.side[h.slot].dropFn
	if d.Drop && dropFn == nil {
		panic("sim: chooser drop decision for an undroppable choice")
	}
	q.remove(h.slot, h.at, h.far)
	q.release(h.slot)
	e.now = minAt
	e.events++
	if d.Drop {
		dropFn(arg, tick)
	} else {
		fn(arg, tick)
	}
	return true
}

// choiceHead locates one offered choice in the queue.
type choiceHead struct {
	slot int32
	at   uint64
	far  bool
}
