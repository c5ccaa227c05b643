// Package machine models a Compute Server's hardware: processor count,
// per-processor memory, CPU speed, and cost rate. It also provides the
// processor allocator the adaptive job scheduler uses; the paper notes
// that "the communication topology also needs to be considered because
// the shrunk jobs should continue to have locality and a contiguous set
// of processors need to be assigned to the new job" (§4.1), so the
// allocator hands out contiguous ranges when possible.
package machine

import (
	"errors"
	"fmt"
)

// Spec describes a Compute Server's static properties — the information
// the Faucets Central Server's directory stores about each machine
// (paper §2: "the maximum number of processors it has, the available
// memory, CPU type, and the address and port number of the FD").
type Spec struct {
	Name     string  `json:"name"`
	NumPE    int     `json:"num_pe"`
	MemPerPE int     `json:"mem_per_pe"` // MB per processor
	CPUType  string  `json:"cpu_type"`
	Speed    float64 `json:"speed"`     // relative to the reference machine (1.0)
	CostRate float64 `json:"cost_rate"` // normalized $ per CPU-second (paper §5.2)
}

// Validate checks the spec for sanity.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return errors.New("machine: spec has no name")
	}
	if s.NumPE < 1 {
		return fmt.Errorf("machine: %s has %d processors", s.Name, s.NumPE)
	}
	if s.Speed <= 0 {
		return fmt.Errorf("machine: %s has non-positive speed %v", s.Name, s.Speed)
	}
	if s.CostRate < 0 {
		return fmt.Errorf("machine: %s has negative cost rate %v", s.Name, s.CostRate)
	}
	if s.MemPerPE < 0 {
		return fmt.Errorf("machine: %s has negative memory %d", s.Name, s.MemPerPE)
	}
	return nil
}

// Alloc is a set of processors granted to one job, kept as a sorted list
// of disjoint [lo, hi) ranges.
type Alloc struct {
	ranges []Range
}

// Range is a half-open interval of processor indices.
type Range struct {
	Lo, Hi int // [Lo, Hi)
}

// Len returns the width of the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// Size returns the number of processors in the allocation.
func (a *Alloc) Size() int {
	n := 0
	for _, r := range a.ranges {
		n += r.Len()
	}
	return n
}

func (a *Alloc) String() string {
	if len(a.ranges) == 0 {
		return "[]"
	}
	s := ""
	for i, r := range a.ranges {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("[%d,%d)", r.Lo, r.Hi)
	}
	return s
}

// Allocator hands out processors on one machine. It prefers the smallest
// free contiguous block that fits (best-fit, to limit fragmentation) and
// falls back to scattering across several blocks only when no single
// block is large enough.
type Allocator struct {
	used []bool // used[p] == true when processor p is allocated
	free int
	// spare holds released allocations; Alloc hands them out again, range
	// storage and all, before it makes a new one.
	spare []*Alloc
}

// NewAllocator returns an allocator for a machine with numPE processors.
func NewAllocator(numPE int) *Allocator {
	if numPE < 1 {
		panic("machine: allocator needs at least one processor")
	}
	return &Allocator{used: make([]bool, numPE), free: numPE}
}

// Free returns the number of unallocated processors.
func (al *Allocator) Free() int { return al.free }

// Used returns the number of allocated processors.
func (al *Allocator) Used() int { return len(al.used) - al.free }

// ErrNoSpace is returned when an allocation cannot be satisfied.
var ErrNoSpace = errors.New("machine: not enough free processors")

// freeEnd returns the end of the free block that starts at processor lo.
func (al *Allocator) freeEnd(lo int) int {
	hi := lo
	for hi < len(al.used) && !al.used[hi] {
		hi++
	}
	return hi
}

// Alloc grants n processors. It returns a contiguous range when any free
// block fits (choosing the best-fit block, the first of equals),
// otherwise it stitches the allocation from free blocks in index order.
func (al *Allocator) Alloc(n int) (*Alloc, error) {
	if n <= 0 {
		return nil, fmt.Errorf("machine: allocation of %d processors", n)
	}
	if n > al.free {
		return nil, fmt.Errorf("%w: want %d, free %d", ErrNoSpace, n, al.free)
	}
	// Best fit: one scan over the free blocks for the smallest that
	// still fits n. An exact fit cannot be beaten, so it ends the scan.
	best, bestLen := -1, 0
	for lo := 0; lo < len(al.used) && bestLen != n; {
		if al.used[lo] {
			lo++
			continue
		}
		hi := al.freeEnd(lo)
		if l := hi - lo; l >= n && (best < 0 || l < bestLen) {
			best, bestLen = lo, l
		}
		lo = hi
	}
	a := al.take()
	if best >= 0 {
		r := Range{best, best + n}
		al.mark(r, true)
		a.ranges = append(a.ranges, r)
		return a, nil
	}
	// Fragmented allocation: take blocks in order until satisfied, which
	// n ≤ free guarantees happens before the scan leaves the machine.
	for lo, remaining := 0, n; remaining > 0; {
		if al.used[lo] {
			lo++
			continue
		}
		r := Range{lo, min(al.freeEnd(lo), lo+remaining)}
		al.mark(r, true)
		a.ranges = append(a.ranges, r)
		remaining -= r.Len()
		lo = r.Hi
	}
	return a, nil
}

// take returns an empty allocation: a spare one if there is one.
func (al *Allocator) take() *Alloc {
	n := len(al.spare)
	if n == 0 {
		return &Alloc{}
	}
	a := al.spare[n-1]
	al.spare[n-1] = nil
	al.spare = al.spare[:n-1]
	return a
}

// recycle empties a and queues it for take.
func (al *Allocator) recycle(a *Alloc) {
	a.ranges = a.ranges[:0]
	al.spare = append(al.spare, a)
}

// Release returns an allocation's processors to the free pool, and the
// allocation itself to the allocator, which may grant it again: the
// caller must drop it. Releasing nil is a no-op; releasing the same
// allocation twice panics, because it indicates scheduler state
// corruption — and would hand the one allocation to two jobs.
func (al *Allocator) Release(a *Alloc) {
	if a == nil {
		return
	}
	if len(a.ranges) == 0 {
		// Every granted allocation holds a processor until released.
		panic("machine: double release of an allocation")
	}
	for _, r := range a.ranges {
		for p := r.Lo; p < r.Hi; p++ {
			if !al.used[p] {
				panic(fmt.Sprintf("machine: double release of processor %d", p))
			}
		}
	}
	for _, r := range a.ranges {
		al.mark(r, false)
	}
	al.recycle(a)
}

// Shrink releases processors from an allocation down to newSize,
// preferring to trim from the tail of the last range so the remainder
// stays contiguous (locality for the shrunk job, paper §4.1).
func (al *Allocator) Shrink(a *Alloc, newSize int) error {
	cur := a.Size()
	if newSize < 1 || newSize > cur {
		return fmt.Errorf("machine: shrink from %d to %d", cur, newSize)
	}
	drop := cur - newSize
	for drop > 0 {
		last := &a.ranges[len(a.ranges)-1]
		take := last.Len()
		if take > drop {
			take = drop
		}
		r := Range{last.Hi - take, last.Hi}
		al.mark(r, false)
		last.Hi -= take
		if last.Len() == 0 {
			a.ranges = a.ranges[:len(a.ranges)-1]
		}
		drop -= take
	}
	return nil
}

// Expand grows an allocation to newSize, extending in place when the
// processors adjacent to the existing ranges are free and falling back to
// new blocks otherwise.
func (al *Allocator) Expand(a *Alloc, newSize int) error {
	cur := a.Size()
	if newSize < cur {
		return fmt.Errorf("machine: expand from %d to %d", cur, newSize)
	}
	need := newSize - cur
	if need == 0 {
		return nil
	}
	if need > al.free {
		return fmt.Errorf("%w: expand needs %d, free %d", ErrNoSpace, need, al.free)
	}
	// Try to extend the last range rightward first, then the first range
	// leftward; this keeps allocations contiguous as long as possible.
	if len(a.ranges) > 0 {
		last := &a.ranges[len(a.ranges)-1]
		for need > 0 && last.Hi < len(al.used) && !al.used[last.Hi] {
			al.used[last.Hi] = true
			al.free--
			last.Hi++
			need--
		}
		first := &a.ranges[0]
		for need > 0 && first.Lo > 0 && !al.used[first.Lo-1] {
			al.used[first.Lo-1] = true
			al.free--
			first.Lo--
			need--
		}
	}
	if need > 0 {
		extra, err := al.Alloc(need)
		if err != nil {
			return err
		}
		a.ranges = append(a.ranges, extra.ranges...)
		al.recycle(extra)
		normalize(a)
	}
	return nil
}

// normalize merges adjacent/overlapping ranges and sorts them.
func normalize(a *Alloc) {
	if len(a.ranges) < 2 {
		return
	}
	// Insertion sort: range counts are tiny.
	for i := 1; i < len(a.ranges); i++ {
		for j := i; j > 0 && a.ranges[j].Lo < a.ranges[j-1].Lo; j-- {
			a.ranges[j], a.ranges[j-1] = a.ranges[j-1], a.ranges[j]
		}
	}
	out := a.ranges[:1]
	for _, r := range a.ranges[1:] {
		last := &out[len(out)-1]
		if r.Lo <= last.Hi {
			if r.Hi > last.Hi {
				last.Hi = r.Hi
			}
		} else {
			out = append(out, r)
		}
	}
	a.ranges = out
}

func (al *Allocator) mark(r Range, used bool) {
	for p := r.Lo; p < r.Hi; p++ {
		al.used[p] = used
	}
	if used {
		al.free -= r.Len()
	} else {
		al.free += r.Len()
	}
}
