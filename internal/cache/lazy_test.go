package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/msg"
)

// eagerArray is the reference the lazily built Array must match: every
// set's frames allocated up front from one backing slice, with the same
// LRU and victim rules.
type eagerArray struct {
	sets     [][]Line
	numSets  int
	lineSize int
	tick     uint64
}

func newEagerArray(sizeBytes, ways, lineSize int) *eagerArray {
	numSets := sizeBytes / (ways * lineSize)
	backing := make([]Line, numSets*ways)
	sets := make([][]Line, numSets)
	for i := range sets {
		sets[i] = backing[i*ways : (i+1)*ways : (i+1)*ways]
	}
	return &eagerArray{sets: sets, numSets: numSets, lineSize: lineSize}
}

func (a *eagerArray) set(addr msg.Addr) []Line {
	return a.sets[int(uint64(addr)/uint64(a.lineSize)%uint64(a.numSets))]
}

func (a *eagerArray) Lookup(addr msg.Addr) *Line {
	set := a.set(addr)
	for i := range set {
		if set[i].Valid && set[i].Addr == addr {
			return &set[i]
		}
	}
	return nil
}

func (a *eagerArray) Touch(l *Line) {
	a.tick++
	l.lru = a.tick
}

func (a *eagerArray) Victim(addr msg.Addr, canEvict func(*Line) bool) *Line {
	set := a.set(addr)
	var victim *Line
	for i := range set {
		l := &set[i]
		if !l.Valid {
			return l
		}
		if canEvict != nil && !canEvict(l) {
			continue
		}
		if victim == nil || l.lru < victim.lru {
			victim = l
		}
	}
	return victim
}

func (a *eagerArray) ForEach(fn func(*Line)) {
	for s := range a.sets {
		for i := range a.sets[s] {
			if a.sets[s][i].Valid {
				fn(&a.sets[s][i])
			}
		}
	}
}

// wayOf returns l's way index within set (-1 for nil).
func wayOf(set []Line, l *Line) int {
	for i := range set {
		if &set[i] == l {
			return i
		}
	}
	if l == nil {
		return -1
	}
	panic("frame not in its set")
}

// TestLazyArrayMatchesEager drives the lazily built Array and the eager
// reference through the same random Victim/Reset/Lookup/invalidate/Touch
// sequences (with random pinning) and requires identical lookup results,
// identical victim way indices and an identical ForEach walk.
func TestLazyArrayMatchesEager(t *testing.T) {
	geoms := [][3]int{
		{4 * 64 * 2, 2, 64},     // 4 sets: one partial chunk
		{256 * 64 * 4, 4, 64},   // 256 sets: several chunks
		{1024 * 64 * 8, 8, 64},  // Table-4 L2 bank geometry
		{1 * 64 * 4, 4, 64},     // a single set
		{128 * 128 * 2, 2, 128}, // another line size
	}
	for gi, g := range geoms {
		for seed := int64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("geom%d/seed%d", gi, seed), func(t *testing.T) {
				lazy, err := NewArray(g[0], g[1], g[2])
				if err != nil {
					t.Fatal(err)
				}
				ref := newEagerArray(g[0], g[1], g[2])
				diffArrays(t, rand.New(rand.NewSource(seed)), lazy, ref)
			})
		}
	}
}

func diffArrays(t *testing.T, rng *rand.Rand, lazy *Array, ref *eagerArray) {
	t.Helper()
	numSets, lineSize := lazy.Sets(), lazy.LineSize()
	// Addresses span a few times the capacity so sets fill and evict, but
	// leave some sets untouched for a while.
	lines := numSets * lazy.Ways() * 3
	hot := 1 + rng.Intn(numSets)
	randAddr := func() msg.Addr {
		line := rng.Intn(lines)
		if rng.Intn(2) == 0 {
			// Concentrate on a subset of sets.
			line = line/numSets*numSets + line%hot
		}
		return msg.Addr(line * lineSize)
	}
	pinned := map[msg.Addr]bool{}
	canEvict := func(l *Line) bool { return !pinned[l.Addr] }
	lazySet := func(addr msg.Addr) []Line { return lazy.sets[lazy.setOf(addr)] }

	for step := 0; step < 4000; step++ {
		addr := randAddr()
		switch op := rng.Intn(10); {
		case op < 4: // insert
			if lazy.Lookup(addr) != nil {
				continue
			}
			var filter func(*Line) bool
			if rng.Intn(3) == 0 {
				filter = canEvict
			}
			lv, rv := lazy.Victim(addr, filter), ref.Victim(addr, filter)
			if lw, rw := wayOf(lazySet(addr), lv), wayOf(ref.set(addr), rv); lw != rw {
				t.Fatalf("step %d: Victim(%#x) way %d, eager way %d", step, addr, lw, rw)
			}
			if lv == nil {
				continue
			}
			if (lv.Valid != rv.Valid) || (lv.Valid && lv.Addr != rv.Addr) {
				t.Fatalf("step %d: victim %+v, eager %+v", step, *lv, *rv)
			}
			state := rng.Intn(4)
			for _, l := range []*Line{lv, rv} {
				l.Reset(addr)
				l.State = state
			}
			lazy.Touch(lv)
			ref.Touch(rv)
		case op < 7: // lookup, sometimes touching
			lv, rv := lazy.Lookup(addr), ref.Lookup(addr)
			if (lv == nil) != (rv == nil) {
				t.Fatalf("step %d: Lookup(%#x) lazy %v eager %v", step, addr, lv != nil, rv != nil)
			}
			if lv == nil {
				continue
			}
			if lv.Addr != rv.Addr || lv.State != rv.State || wayOf(lazySet(addr), lv) != wayOf(ref.set(addr), rv) {
				t.Fatalf("step %d: Lookup(%#x) lazy %+v eager %+v", step, addr, *lv, *rv)
			}
			if rng.Intn(2) == 0 {
				lazy.Touch(lv)
				ref.Touch(rv)
			}
		case op < 8: // invalidate
			if lv, rv := lazy.Lookup(addr), ref.Lookup(addr); lv != nil && rv != nil {
				lv.Valid, rv.Valid = false, false
			}
		default: // toggle a pin
			pinned[addr] = !pinned[addr]
		}
	}

	var lw, rw []string
	lazy.ForEach(func(l *Line) { lw = append(lw, fmt.Sprintf("%#x/%d", l.Addr, l.State)) })
	ref.ForEach(func(l *Line) { rw = append(rw, fmt.Sprintf("%#x/%d", l.Addr, l.State)) })
	if fmt.Sprint(lw) != fmt.Sprint(rw) {
		t.Fatalf("ForEach walks differ:\nlazy  %v\neager %v", lw, rw)
	}
	if lazy.Count() != len(rw) {
		t.Fatalf("Count = %d, eager has %d lines", lazy.Count(), len(rw))
	}
}

// TestLazyArrayUntouched pins the point of building sets lazily: a fresh
// array holds no frames, a lookup in a set never touched allocates nothing,
// and touching one set materializes frames for it alone.
func TestLazyArrayUntouched(t *testing.T) {
	a, err := NewArray(1024*64*8, 8, 64) // a Table-4 L2 bank
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if a.Lookup(0x12340) != nil {
			t.Fatal("hit in an empty array")
		}
	}); allocs != 0 {
		t.Fatalf("Lookup miss on an untouched set: %.0f allocs, want 0", allocs)
	}
	v := a.Victim(0x40, nil)
	if v == nil || v.Valid {
		t.Fatal("first Victim in a set must return an invalid frame")
	}
	v.Reset(0x40)
	touched := 0
	for _, set := range a.sets {
		if set != nil {
			touched++
		}
	}
	if touched != 1 || a.Count() != 1 || a.Lookup(0x40) != v {
		t.Fatalf("%d sets materialized, count %d", touched, a.Count())
	}
	if got := len(a.chunk) + a.ways; got != chunkSets*a.ways {
		t.Fatalf("first chunk holds %d frames, want %d", got, chunkSets*a.ways)
	}
}
