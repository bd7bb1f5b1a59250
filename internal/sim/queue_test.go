package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refEvent is one pending event of the reference queue.
type refEvent struct {
	at, seq uint64
	id      int
	choice  bool
	key     uint64
	canDrop bool
}

// queueHarness drives an Engine and a reference model side by side. The
// reference keeps pending events in a plain slice and always fires the
// minimum by (at, seq); at a choice point it offers the earliest event of
// every channel. Every event the engine fires is checked against it, so
// the firing order must equal the reference's exactly.
type queueHarness struct {
	t       testing.TB
	e       *Engine
	next    func() uint64 // op stream
	pending []refEvent
	seq     uint64
	ids     int
	chosen  int // id the chooser picked, or -1
	fired   int
}

// queueDelays covers both sides of the wheel boundary W = 64, events due
// in the current cycle, and far timers.
var queueDelays = []uint64{0, 1, 2, 3, 5, 6, wheelSpan - 1, wheelSpan, wheelSpan + 1, 127, 128, 2048, 2049, 5000}

func newQueueHarness(t testing.TB, next func() uint64, withChooser bool) *queueHarness {
	h := &queueHarness{t: t, e: NewEngine(), next: next, chosen: -1}
	if withChooser {
		h.e.SetChooser(h)
	}
	return h
}

func (h *queueHarness) delay() uint64 {
	v := h.next()
	if v%4 == 0 {
		return v / 4 % 3000 // arbitrary delays, mostly far
	}
	return queueDelays[v%uint64(len(queueDelays))]
}

// schedule queues one event through the API form kind selects.
func (h *queueHarness) schedule(kind uint64) {
	d := h.delay()
	at := h.e.Now() + d
	h.ids++
	id := h.ids
	h.seq++
	ev := refEvent{at: at, seq: h.seq, id: id}
	switch kind % 5 {
	case 0:
		h.e.Schedule(d, func() { h.fire(id) })
	case 1:
		h.e.ScheduleAt(at, func() { h.fire(id) })
	case 2:
		h.e.ScheduleCall(d, harnessFire, h, uint64(id))
	case 3:
		h.e.ScheduleCallAt(at, harnessFire, h, uint64(id))
	case 4:
		ev.choice, ev.key, ev.canDrop = true, h.next()%4, h.next()%2 == 0
		var drop func(any, uint64)
		if ev.canDrop {
			drop = harnessFire
		}
		h.e.ScheduleChoiceAt(at, harnessFire, drop, h, uint64(id), ev.key, uint64(id))
	}
	h.pending = append(h.pending, ev)
	h.checkPending()
}

func harnessFire(arg any, tick uint64) { arg.(*queueHarness).fire(int(tick)) }

// minIdx returns the index of the reference's earliest pending event.
func (h *queueHarness) minIdx() int {
	m := 0
	for i, ev := range h.pending {
		if ev.at < h.pending[m].at || (ev.at == h.pending[m].at && ev.seq < h.pending[m].seq) {
			m = i
		}
	}
	return m
}

// fire checks that the engine fired the event the reference expects, then
// sometimes schedules a follow-up from inside the callback.
func (h *queueHarness) fire(id int) {
	h.t.Helper()
	want := h.minIdx()
	wantAt := h.pending[want].at
	if h.chosen >= 0 {
		want = slices.IndexFunc(h.pending, func(ev refEvent) bool { return ev.id == h.chosen })
		h.chosen = -1
	}
	if got := h.pending[want]; got.id != id || h.e.Now() != wantAt {
		h.t.Fatalf("fired event %d at cycle %d, want event %d at cycle %d", id, h.e.Now(), got.id, wantAt)
	}
	h.pending = slices.Delete(h.pending, want, want+1)
	h.fired++
	if v := h.next(); v%3 == 0 {
		h.schedule(v / 3)
	}
}

// Choose checks the offered channel heads against the reference and picks
// one from the op stream.
func (h *queueHarness) Choose(now uint64, choices []Choice) Decision {
	h.t.Helper()
	var want []Choice
	var ids []int
	order := slices.Clone(h.pending)
	slices.SortFunc(order, func(a, b refEvent) int {
		if a.at != b.at {
			return int(a.at) - int(b.at)
		}
		return int(a.seq) - int(b.seq)
	})
	seen := map[uint64]bool{}
	for _, ev := range order {
		if ev.choice && !seen[ev.key] {
			seen[ev.key] = true
			want = append(want, Choice{Key: ev.key, Info: uint64(ev.id), At: ev.at, CanDrop: ev.canDrop})
			ids = append(ids, ev.id)
		}
	}
	if now != order[0].at || !slices.Equal(choices, want) {
		h.t.Fatalf("choice point at %d offered %+v, want %+v at %d", now, choices, want, order[0].at)
	}
	i := int(h.next() % uint64(len(choices)))
	h.chosen = ids[i]
	return Decision{Index: i, Drop: choices[i].CanDrop && h.next()%2 == 0}
}

func (h *queueHarness) checkPending() {
	h.t.Helper()
	if h.e.Pending() != len(h.pending) {
		h.t.Fatalf("Pending() = %d, reference holds %d", h.e.Pending(), len(h.pending))
	}
}

// step applies one operation from the op stream: schedule, Step, or Run
// with a cycle limit.
func (h *queueHarness) step() {
	h.t.Helper()
	switch op := h.next(); op % 8 {
	case 0, 1, 2, 3:
		h.schedule(op / 8)
	case 4, 5, 6:
		had := len(h.pending)
		if h.e.Step() != (had > 0) {
			h.t.Fatalf("Step() disagrees with %d pending", had)
		}
	case 7:
		limit := h.e.Now() + h.delay()
		err := h.e.Run(limit)
		late := len(h.pending) > 0
		for _, ev := range h.pending {
			if ev.at <= limit {
				h.t.Fatalf("Run(%d) left event %d due at %d", limit, ev.id, ev.at)
			}
		}
		if errors.Is(err, ErrLimitReached) != late {
			h.t.Fatalf("Run(%d) = %v with %d events pending", limit, err, len(h.pending))
		}
	}
	h.checkPending()
}

// drain runs the queue dry and checks nothing is left over.
func (h *queueHarness) drain() {
	h.t.Helper()
	if err := h.e.Run(0); err != nil {
		h.t.Fatal(err)
	}
	if len(h.pending) != 0 || h.e.Pending() != 0 {
		h.t.Fatalf("drained engine: %d pending, reference %d", h.e.Pending(), len(h.pending))
	}
	if h.e.EventsExecuted() != uint64(h.fired) {
		h.t.Fatalf("EventsExecuted() = %d, fired %d", h.e.EventsExecuted(), h.fired)
	}
}

// TestQueueMatchesReference compares the engine's firing order on random
// schedules with a reference sorted by (at, seq): delays on both sides of
// the wheel boundary and beyond 2048 cycles, ScheduleAt(now), events
// scheduled from inside callbacks, Run's limit check and Pending, with and
// without a chooser removing choice events from anywhere in the queue.
func TestQueueMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		for _, withChooser := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed%d/chooser=%t", seed, withChooser), func(t *testing.T) {
				src := rand.New(rand.NewSource(seed))
				h := newQueueHarness(t, func() uint64 { return src.Uint64() }, withChooser)
				for range 2000 {
					h.step()
				}
				h.drain()
			})
		}
	}
}

// TestQueueChoiceRemovalPositions removes a chosen event from the head,
// the middle and the tail of one wheel bucket and from inside the far heap,
// and checks that the rest still fires in (at, seq) order.
func TestQueueChoiceRemovalPositions(t *testing.T) {
	cases := []struct {
		name string
		pick uint64 // index among the offered choices
	}{{"bucket head", 0}, {"bucket middle", 1}, {"bucket tail", 2}, {"far heap", 4}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var ops []uint64
			h := newQueueHarness(t, func() uint64 {
				if len(ops) == 0 {
					return 1 // no follow-ups, no drops
				}
				v := ops[0]
				ops = ops[1:]
				return v
			}, true)
			// Three channels share the bucket of cycle 5; two more channels
			// and a plain event wait in the far heap.
			for key := range uint64(3) {
				h.seq++
				h.ids++
				h.e.ScheduleChoiceAt(5, harnessFire, nil, h, uint64(h.ids), key, uint64(h.ids))
				h.pending = append(h.pending, refEvent{at: 5, seq: h.seq, id: h.ids, choice: true, key: key})
			}
			for key := uint64(3); key < 5; key++ {
				h.seq++
				h.ids++
				h.e.ScheduleChoiceAt(3000+key, harnessFire, nil, h, uint64(h.ids), key, uint64(h.ids))
				h.pending = append(h.pending, refEvent{at: 3000 + key, seq: h.seq, id: h.ids, choice: true, key: key})
			}
			h.seq++
			h.ids++
			h.e.ScheduleCallAt(2000, harnessFire, h, uint64(h.ids))
			h.pending = append(h.pending, refEvent{at: 2000, seq: h.seq, id: h.ids})
			ops = []uint64{c.pick}
			if !h.e.Step() {
				t.Fatal("Step found no event")
			}
			if h.e.Now() != 5 || h.e.Pending() != 5 {
				t.Fatalf("after the choice: now %d, %d pending; want 5, 5", h.e.Now(), h.e.Pending())
			}
			h.drain()
		})
	}
}

// FuzzEngineOrder drives the same differential harness from fuzzer bytes:
// the first byte turns the chooser on, each later byte is one draw of the
// op stream.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 0, 8, 16, 4, 5, 6, 7})
	f.Add([]byte{1, 4, 12, 20, 28, 5, 5, 5, 7, 13})
	f.Add([]byte("\x00\x07\x0f\x1f\x3f\x40\x41\x7f\x80\xff\x04\x05\x06"))
	f.Add([]byte("\x01schedule choice events across the wheel and the far heap"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		withChooser, data := data[0]%2 == 1, data[1:]
		ops := len(data)
		h := newQueueHarness(t, func() uint64 {
			if len(data) == 0 {
				return 1
			}
			v := uint64(data[0])
			data = data[1:]
			return v
		}, withChooser)
		for range ops {
			h.step()
		}
		h.drain()
	})
}

// TestStoppedTimerStaysQueued pins lazy timer cancellation: Stop only
// bumps the timer's epoch, so the armed event stays queued, fires as a
// no-op, and counts in EventsExecuted. The tile-death golden
// (testdata/tile_death.txt and .json) depends on this: after a tile death
// the drain advances the clock through stale timeout events, and the
// survivors' death declaration, hence the reconstruction latency, comes
// from that clock. Dequeuing stopped timers changes the golden.
func TestStoppedTimerStaysQueued(t *testing.T) {
	e := NewEngine()
	tm := NewTimer(e)
	tm.Start(3000, func() { t.Fatal("stopped timer fired its callback") })
	tm.Stop()
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d after Stop, want 1 (the stale event stays queued)", e.Pending())
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if e.EventsExecuted() != 1 || e.Now() != 3000 {
		t.Fatalf("events %d at cycle %d, want the stale firing counted at 3000", e.EventsExecuted(), e.Now())
	}
}

// queueBench is BenchmarkEngineQueueMesh's event source: every fired event
// schedules its successor with the delay mix measured on the Table-4 mesh.
type queueBench struct {
	e *Engine
	x uint64
}

func queueBenchFire(arg any, _ uint64) {
	b := arg.(*queueBench)
	b.x ^= b.x << 13
	b.x ^= b.x >> 7
	b.x ^= b.x << 17
	b.e.ScheduleCall(meshDelay(b.x), queueBenchFire, b, 0)
}

// meshDelay maps a random draw to the mesh's push-delay mix: 86% of pushes
// are 2 to 6 cycles out (hops, serialisation, cache latencies), 14% are
// fault-detection timers 128 to 4095 cycles out.
func meshDelay(x uint64) uint64 {
	if x%100 < 86 {
		return 2 + x/100%5
	}
	return 128 + x/100%3968
}

// BenchmarkEngineQueueMesh holds about 2,800 events pending, the mesh's
// mean queue depth, and steps through them with the mesh's delay mix, so
// both the wheel and the far heap are exercised. One op is one event; in
// steady state it allocates nothing.
func BenchmarkEngineQueueMesh(b *testing.B) {
	const depth = 2800
	qb := &queueBench{e: NewEngine(), x: 0x9e3779b97f4a7c15}
	for i := range depth {
		qb.e.ScheduleCall(meshDelay(uint64(i)*0x9e3779b97f4a7c15>>7), queueBenchFire, qb, 0)
	}
	for range 10 * depth {
		qb.e.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		qb.e.Step()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
}
