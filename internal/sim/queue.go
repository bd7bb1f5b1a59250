package sim

import (
	"math/bits"
	"slices"
)

// wheelSpan is W, the width of the timing wheel in cycles: an event due
// fewer than W cycles after now goes into the wheel, a later one into the
// far heap. W = 64 lets one uint64 mark the wheel's occupied buckets.
const wheelSpan = 64

// nilSlot ends a slot chain (a wheel bucket's FIFO or the free chain).
const nilSlot int32 = -1

// slot holds one scheduled event's payload. Slots live in the queue's slab
// and are recycled through an intrusive free chain, so scheduling reuses
// memory instead of allocating. fn is always set while the slot is live;
// arg and tick are the ScheduleCall payload (a plain closure travels in
// arg). next links the slot into its wheel bucket's FIFO while queued and
// into the free chain while free. choice marks a slot whose choice payload
// sits in the queue's side table.
//
// A slot stores neither its time nor its sequence number: a wheel slot's
// time is its bucket's cycle and its place in the FIFO is its sequence
// order, and a far slot's (at, seq) is its heap key.
type slot struct {
	fn     func(arg any, tick uint64)
	arg    any
	tick   uint64
	next   int32
	choice bool
}

// farKey orders one far-heap entry: its (at, seq) next to its slot index,
// so sifting moves 24-byte keys and never touches the slab.
type farKey struct {
	at   uint64
	seq  uint64
	slot int32
}

func (a farKey) less(b farKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// bucket is one wheel cycle's FIFO of slots. head and tail are meaningful
// only while the bucket's bit is set in queue.mask.
type bucket struct{ head, tail int32 }

// choicePayload is the part of a choice event only the model checker reads
// (see choice.go). It lives in a side table indexed by slot, filled only by
// ScheduleChoiceAt, so plain events do not carry it.
type choicePayload struct {
	key    uint64
	info   uint64
	dropFn func(arg any, tick uint64)
}

// queue orders pending events by (at, seq). Events due within wheelSpan
// cycles of now sit in a timing wheel: one FIFO per cycle, found through
// the occupancy mask with a trailing-zeros count. Because seq grows with
// every push, each FIFO is already in seq order. Later events sit in a
// 4-ary min-heap of farKeys. The earliest event is the earlier of the two
// heads.
//
// Two invariants keep this exact. A wheel event never leaves the window
// [now, now+wheelSpan): it is due at or after now, and now only advances
// to the earliest pending event, so each bucket holds a single cycle's
// events. And when a far event and a wheel event are due in the same
// cycle T, the far one was pushed first: it went far because now was at
// most T-wheelSpan at its push, the wheel one because now was past that,
// and now never decreases. So on equal times the far head fires first.
type queue struct {
	slots []slot
	free  int32 // head of the free chain through slot.next
	wheel [wheelSpan]bucket
	mask  uint64 // bit b set: wheel[b] is non-empty
	far   []farKey
	side  []choicePayload
	n     int

	// pushes counts scheduled events and grows the pushes that grew the
	// slab's backing array. Engine.Run and RunUntil fold them into the
	// process totals HeapStats reports.
	pushes, grows uint64
}

func newQueue() queue {
	return queue{
		slots: make([]slot, 0, 1024),
		free:  nilSlot,
		far:   make([]farKey, 0, 256),
	}
}

// push queues an event due at cycle at (at >= now) and returns its slot.
func (q *queue) push(now, at, seq uint64, fn func(any, uint64), arg any, tick uint64) int32 {
	q.pushes++
	i := q.free
	if i != nilSlot {
		q.free = q.slots[i].next
	} else {
		if len(q.slots) == cap(q.slots) {
			q.grows++
		}
		i = int32(len(q.slots))
		q.slots = append(q.slots, slot{})
	}
	s := &q.slots[i]
	s.fn, s.arg, s.tick, s.next = fn, arg, tick, nilSlot
	q.n++
	if at-now >= wheelSpan {
		q.farPush(farKey{at: at, seq: seq, slot: i})
		return i
	}
	b := &q.wheel[at%wheelSpan]
	if bit := uint64(1) << (at % wheelSpan); q.mask&bit == 0 {
		q.mask |= bit
		b.head = i
	} else {
		q.slots[b.tail].next = i
	}
	b.tail = i
	return i
}

// head returns the earliest pending slot, its time, and whether it sits in
// the far heap. The queue must be non-empty.
func (q *queue) head(now uint64) (i int32, at uint64, far bool) {
	if q.mask == 0 {
		return q.far[0].slot, q.far[0].at, true
	}
	at = now + uint64(bits.TrailingZeros64(bits.RotateLeft64(q.mask, -int(now%wheelSpan))))
	if len(q.far) > 0 && q.far[0].at <= at {
		return q.far[0].slot, q.far[0].at, true
	}
	return q.wheel[at%wheelSpan].head, at, false
}

// remove unlinks slot i, due at cycle at, from the far heap or from its
// wheel bucket. The slot stays allocated until release. Removing a head
// (what Step does) is O(1) from the wheel and O(log n) from the heap; the
// model checker also removes events from mid-queue, by linear scan.
func (q *queue) remove(i int32, at uint64, far bool) {
	q.n--
	if far {
		for k := range q.far {
			if q.far[k].slot == i {
				q.farRemove(k)
				return
			}
		}
		panic("sim: slot missing from the far heap")
	}
	b := &q.wheel[at%wheelSpan]
	if b.head == i {
		if b.tail == i {
			q.mask &^= 1 << (at % wheelSpan)
		} else {
			b.head = q.slots[i].next
		}
		return
	}
	prev := b.head
	for q.slots[prev].next != i {
		prev = q.slots[prev].next
	}
	q.slots[prev].next = q.slots[i].next
	if b.tail == i {
		b.tail = prev
	}
}

// release returns an unlinked slot to the free chain, dropping its
// references so the slab does not keep callbacks or arguments alive.
func (q *queue) release(i int32) {
	if q.slots[i].choice {
		q.side[i] = choicePayload{}
	}
	q.slots[i] = slot{next: q.free}
	q.free = i
}

// inOrder calls f for every queued slot in firing order, with its time and
// whether it sits in the far heap. It sorts a copy of the far heap into
// sorted, which it returns for reuse.
func (q *queue) inOrder(now uint64, sorted []farKey, f func(i int32, at uint64, far bool)) []farKey {
	sorted = append(sorted[:0], q.far...)
	slices.SortFunc(sorted, func(a, b farKey) int {
		if a.less(b) {
			return -1
		}
		return 1
	})
	k := 0
	for m := bits.RotateLeft64(q.mask, -int(now%wheelSpan)); m != 0; m &= m - 1 {
		at := now + uint64(bits.TrailingZeros64(m))
		for ; k < len(sorted) && sorted[k].at <= at; k++ {
			f(sorted[k].slot, sorted[k].at, true)
		}
		b := q.wheel[at%wheelSpan]
		for i := b.head; ; i = q.slots[i].next {
			f(i, at, false)
			if i == b.tail {
				break
			}
		}
	}
	for ; k < len(sorted); k++ {
		f(sorted[k].slot, sorted[k].at, true)
	}
	return sorted
}

// farPush adds k to the 4-ary far heap.
func (q *queue) farPush(k farKey) {
	q.far = append(q.far, k)
	h := q.far
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !k.less(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = k
}

// farRemove deletes the far-heap entry at index i, refilling the hole with
// the last entry and sifting it down (or, if it did not move, up).
func (q *queue) farRemove(i int) {
	n := len(q.far) - 1
	k := q.far[n]
	q.far = q.far[:n]
	if i == n {
		return
	}
	h := q.far
	start := i
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if h[j].less(h[m]) {
				m = j
			}
		}
		if !h[m].less(k) {
			break
		}
		h[i] = h[m]
		i = m
	}
	if i == start {
		for i > 0 {
			p := (i - 1) / 4
			if !k.less(h[p]) {
				break
			}
			h[i] = h[p]
			i = p
		}
	}
	h[i] = k
}
