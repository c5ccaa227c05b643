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
	"slices"
	"sort"
)

// step is one breakpoint of the chart: used processors are in use from
// at until the next step's at.
type step struct {
	at   float64
	used int
}

// Chart is a set of reservations against a fixed processor capacity,
// kept as sorted steps: the first at -Inf, then every reservation's start
// and end. The last step, where every reservation has ended, holds none.
// The zero value is unusable; construct with NewChart.
type Chart struct {
	capacity int
	nextID   int
	steps    []step
	horizon  float64 // the latest finite reservation end; -Inf if none
}

// NewChart returns an empty chart over capacity processors.
func NewChart(capacity int) *Chart {
	if capacity < 1 {
		panic("gantt: capacity must be positive")
	}
	return &Chart{capacity: capacity, steps: []step{{at: math.Inf(-1)}}, horizon: math.Inf(-1)}
}

// Errors returned by Reserve.
var (
	ErrBadInterval = errors.New("gantt: end must be after start")
	ErrBadPEs      = errors.New("gantt: reservation PEs out of range")
	ErrOverflow    = errors.New("gantt: reservation exceeds capacity in window")
)

// Reserve books pe processors over [start, end) and returns the
// reservation id. It fails if any instant in the window would exceed
// capacity. A NaN bound is no interval, and neither is a start of +Inf.
func (c *Chart) Reserve(start, end float64, pe int) (int, error) {
	if !(start < end) {
		return 0, fmt.Errorf("%w: [%v,%v)", ErrBadInterval, start, end)
	}
	if pe < 1 || pe > c.capacity {
		return 0, fmt.Errorf("%w: %d of %d", ErrBadPEs, pe, c.capacity)
	}
	if c.minFree(start, end) < pe {
		return 0, fmt.Errorf("%w: %d PEs in [%v,%v)", ErrOverflow, pe, start, end)
	}
	from, to := c.split(start), c.split(end)
	for k := from; k < to; k++ {
		c.steps[k].used += pe
	}
	if end > c.horizon && !math.IsInf(end, 1) {
		c.horizon = end
	}
	c.nextID++
	return c.nextID, nil
}

// holding returns the index of the step in force at t: the last one at
// or before t. A NaN t is held by the last step, which holds none.
func (c *Chart) holding(t float64) int {
	return sort.Search(len(c.steps), func(k int) bool { return c.steps[k].at > t }) - 1
}

// split makes t a step and returns its index.
func (c *Chart) split(t float64) int {
	k := c.holding(t)
	if c.steps[k].at != t {
		k++
		c.steps = slices.Insert(c.steps, k, step{at: t, used: c.steps[k-1].used})
	}
	return k
}

// minFree returns the minimum free processors over [start, end): those
// free at start and at every step that begins inside the window.
func (c *Chart) minFree(start, end float64) int {
	k := c.holding(start)
	used := c.steps[k].used
	for k++; k < len(c.steps) && c.steps[k].at < end; k++ {
		used = max(used, c.steps[k].used)
	}
	return c.capacity - used
}

// FindWindow returns the earliest start ≥ earliest at which pe
// processors stay free for duration seconds, finishing no later than
// deadline (deadline ≤ 0 means unbounded). ok is false when no such
// window exists.
//
// It is one sweep: a step with too few processors free inside the
// window moves the start to that step's end, the next instant at which
// the window can fit.
func (c *Chart) FindWindow(earliest, duration float64, pe int, deadline float64) (float64, bool) {
	if pe < 1 || pe > c.capacity || duration <= 0 {
		return 0, false
	}
	limit := c.capacity - pe // the most a window may find in use
	start := earliest
	for k := c.holding(start); ; {
		if deadline > 0 && start+duration > deadline {
			return 0, false // later starts only get worse
		}
		for c.steps[k].used <= limit {
			if k++; k == len(c.steps) || !(c.steps[k].at < start+duration) {
				return start, true
			}
		}
		// Step k blocks the window, and the last step never does: the
		// window tries again where step k ends.
		if k++; math.IsInf(c.steps[k].at, 1) {
			return 0, false
		}
		start = c.steps[k].at
	}
}

// Horizon returns the latest finite reservation end (or `now` if none) —
// the time after which the whole machine is free again.
func (c *Chart) Horizon(now float64) float64 {
	if c.horizon > now {
		return c.horizon
	}
	return now
}
