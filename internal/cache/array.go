// Package cache provides the storage substrates shared by both protocols:
// a set-associative cache array with LRU replacement, and a generic
// bounded table used for MSHRs and writeback/backup buffers.
//
// An Array's frames are built lazily: a set gets its ways the first time
// Victim picks a frame in it, carved from fixed-size chunks, and a set never
// touched has none. Assembly therefore allocates no frames, and a run's
// array memory scales with the sets it touches rather than with the
// configured capacity (a Table-4 L2 bank is 512 KB; a short run touches a
// small fraction of its sets). Lookup misses on an untouched set and
// ForEach skips it, so every observable result is that of an array built
// eagerly.
package cache

import (
	"fmt"

	"repro/internal/msg"
)

// Line is one cache frame. State is protocol-defined; the array only cares
// about Valid and the LRU stamp. L2 directory lines additionally use the
// Sharers and Owner fields.
type Line struct {
	Addr    msg.Addr
	Valid   bool
	State   int
	Payload msg.Payload
	Sharers Bitset
	Owner   msg.NodeID
	Dirty   bool

	lru uint64
}

// Reset prepares the frame for a new address, clearing all content.
func (l *Line) Reset(addr msg.Addr) {
	*l = Line{Addr: addr, Valid: true}
}

// Array is a set-associative cache indexed by line address.
type Array struct {
	// sets[i] is nil until set i is first touched by Victim; then it holds
	// the set's ways, carved from chunk.
	sets     [][]Line
	chunk    []Line // frames not yet handed to a set
	numSets  int
	ways     int
	lineSize int
	tick     uint64
}

// chunkSets is how many sets' frames one chunk allocation provides (fewer
// when the array has fewer sets), so materializing sets costs one
// allocation per chunkSets first touches rather than one per set.
const chunkSets = 64

// NewArray builds an array with the given geometry. sizeBytes must be a
// multiple of ways*lineSize and the resulting set count a power of two.
// No frames are allocated until a set is first touched.
func NewArray(sizeBytes, ways, lineSize int) (*Array, error) {
	if sizeBytes <= 0 || ways <= 0 || lineSize <= 0 {
		return nil, fmt.Errorf("cache: invalid geometry size=%d ways=%d line=%d", sizeBytes, ways, lineSize)
	}
	if sizeBytes%(ways*lineSize) != 0 {
		return nil, fmt.Errorf("cache: size %d not divisible by ways*line %d", sizeBytes, ways*lineSize)
	}
	numSets := sizeBytes / (ways * lineSize)
	if numSets&(numSets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d not a power of two", numSets)
	}
	return &Array{sets: make([][]Line, numSets), numSets: numSets, ways: ways, lineSize: lineSize}, nil
}

// LineSize returns the line size in bytes.
func (a *Array) LineSize() int { return a.lineSize }

// Sets returns the number of sets.
func (a *Array) Sets() int { return a.numSets }

// Ways returns the associativity.
func (a *Array) Ways() int { return a.ways }

// setOf returns the set index for a line-aligned address.
func (a *Array) setOf(addr msg.Addr) int {
	return int(uint64(addr) / uint64(a.lineSize) % uint64(a.numSets))
}

// Lookup returns the frame holding addr, or nil on miss. It does not update
// LRU state; call Touch when the access actually uses the line.
func (a *Array) Lookup(addr msg.Addr) *Line {
	set := a.sets[a.setOf(addr)]
	for i := range set {
		if set[i].Valid && set[i].Addr == addr {
			return &set[i]
		}
	}
	return nil
}

// Touch marks the line most-recently-used.
func (a *Array) Touch(l *Line) {
	a.tick++
	l.lru = a.tick
}

// Victim returns the frame to use for addr: an invalid way if one exists,
// otherwise the least-recently-used way for which canEvict returns true.
// It returns nil when every way is pinned (callers must then stall or pick
// another course). The returned frame still holds the victim's contents;
// the caller evicts it and then calls Reset.
func (a *Array) Victim(addr msg.Addr, canEvict func(*Line) bool) *Line {
	s := a.setOf(addr)
	set := a.sets[s]
	if set == nil {
		set = a.carve()
		a.sets[s] = set
	}
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

// carve hands out the next set's worth of invalid frames, allocating a new
// chunk when the current one is used up.
func (a *Array) carve() []Line {
	if len(a.chunk) == 0 {
		a.chunk = make([]Line, min(chunkSets, a.numSets)*a.ways)
	}
	set := a.chunk[:a.ways:a.ways]
	a.chunk = a.chunk[a.ways:]
	return set
}

// ForEach visits every valid line in ascending (set, way) order, skipping
// sets never touched. It backs full-state walks (InspectLines, the
// structural checks); a question about one line should use Lookup.
func (a *Array) ForEach(fn func(*Line)) {
	for _, set := range a.sets {
		for i := range set {
			if set[i].Valid {
				fn(&set[i])
			}
		}
	}
}

// Count returns the number of valid lines.
func (a *Array) Count() int {
	n := 0
	a.ForEach(func(*Line) { n++ })
	return n
}
