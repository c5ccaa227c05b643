// Package gantt implements the processor-time Gantt chart of paper
// §4.1: "The strategy must find time windows for the job in its
// processor-time Gantt chart before the job's deadline. If enough time
// cannot be allocated for the job it must be rejected."
//
// A Chart tracks reserved processor counts over future time as a step
// function. Schedulers build one from their predicted completions (and
// firm reservations) and query it for the earliest window in which a
// job's processors fit.
package gantt

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Reservation is one processor-time rectangle.
type Reservation struct {
	ID    int
	Start float64
	End   float64 // +Inf allowed for open-ended holds
	PEs   int
}

// Chart is a set of reservations against a fixed processor capacity.
// The zero value is unusable; construct with NewChart.
type Chart struct {
	capacity int
	nextID   int
	res      map[int]Reservation
}

// NewChart returns an empty chart over capacity processors.
func NewChart(capacity int) *Chart {
	if capacity < 1 {
		panic("gantt: capacity must be positive")
	}
	return &Chart{capacity: capacity, res: map[int]Reservation{}}
}

// Errors returned by Reserve.
var (
	ErrBadInterval = errors.New("gantt: end must be after start")
	ErrBadPEs      = errors.New("gantt: reservation PEs out of range")
	ErrOverflow    = errors.New("gantt: reservation exceeds capacity in window")
)

// Reserve books pe processors over [start, end) and returns the
// reservation id. It fails if any instant in the window would exceed
// capacity.
func (c *Chart) Reserve(start, end float64, pe int) (int, error) {
	if end <= start {
		return 0, fmt.Errorf("%w: [%v,%v)", ErrBadInterval, start, end)
	}
	if pe < 1 || pe > c.capacity {
		return 0, fmt.Errorf("%w: %d of %d", ErrBadPEs, pe, c.capacity)
	}
	if c.MinFree(start, end) < pe {
		return 0, fmt.Errorf("%w: %d PEs in [%v,%v)", ErrOverflow, pe, start, end)
	}
	c.nextID++
	c.res[c.nextID] = Reservation{ID: c.nextID, Start: start, End: end, PEs: pe}
	return c.nextID, nil
}

// UsedAt returns the processors reserved at instant t.
func (c *Chart) UsedAt(t float64) int {
	used := 0
	for _, r := range c.res {
		if r.Start <= t && t < r.End {
			used += r.PEs
		}
	}
	return used
}

// FreeAt returns the processors free at instant t.
func (c *Chart) FreeAt(t float64) int { return c.capacity - c.UsedAt(t) }

// MinFree returns the minimum free processors over [start, end).
// Availability only changes at reservation boundaries, so it suffices to
// sample start and every boundary inside the window.
func (c *Chart) MinFree(start, end float64) int {
	min := c.FreeAt(start)
	for _, r := range c.res {
		for _, t := range [2]float64{r.Start, r.End} {
			if t > start && t < end {
				if f := c.FreeAt(t); f < min {
					min = f
				}
			}
		}
	}
	return min
}

// FindWindow returns the earliest start ≥ earliest at which pe
// processors stay free for duration seconds, finishing no later than
// deadline (deadline ≤ 0 means unbounded). ok is false when no such
// window exists.
func (c *Chart) FindWindow(earliest, duration float64, pe int, deadline float64) (float64, bool) {
	if pe < 1 || pe > c.capacity || duration <= 0 {
		return 0, false
	}
	// Candidate starts: `earliest` plus every boundary after it, sorted.
	cands := []float64{earliest}
	for _, r := range c.res {
		for _, t := range [2]float64{r.Start, r.End} {
			if t > earliest && !math.IsInf(t, 1) {
				cands = append(cands, t)
			}
		}
	}
	sort.Float64s(cands)
	for _, start := range cands {
		if deadline > 0 && start+duration > deadline {
			return 0, false // later candidates only get worse
		}
		if c.MinFree(start, start+duration) >= pe {
			return start, true
		}
	}
	return 0, false
}

// Horizon returns the latest finite reservation end (or `now` if none) —
// the time after which the whole machine is free again.
func (c *Chart) Horizon(now float64) float64 {
	h := now
	for _, r := range c.res {
		if !math.IsInf(r.End, 1) && r.End > h {
			h = r.End
		}
	}
	return h
}
