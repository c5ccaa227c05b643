package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
)

// Event is a scheduled callback. Events with equal times fire in the order
// of (Priority ascending, insertion sequence ascending), so ties are
// deterministic. An Event may be the caller's own, scheduled again and
// again with Engine.Rearm; the zero Event is unscheduled.
type Event struct {
	At       Time
	Priority int
	Name     string // for tracing; not used by the engine
	Fn       func(*Engine)

	seq   uint64
	index int // heap index + 1; 0 while not pending
}

// Cancelled reports whether the event is not pending: cancelled, already
// fired or never scheduled.
func (e *Event) Cancelled() bool { return e.index == 0 }

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	if h[i].Priority != h[j].Priority {
		return h[i].Priority < h[j].Priority
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i + 1
	h[j].index = j + 1
}

func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	*h = append(*h, e)
	e.index = len(*h)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = 0
	*h = old[:n-1]
	return e
}

// Engine is a single-threaded discrete-event simulation executive.
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now     Time
	queue   eventHeap
	seq     uint64
	stopped bool
	fired   uint64
	horizon Time
}

// NewEngine returns an engine positioned at time zero with no horizon.
func NewEngine() *Engine {
	return &Engine{horizon: Time(math.Inf(1))}
}

// Now returns the current virtual time. Engine satisfies Clock.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events currently scheduled.
func (e *Engine) Pending() int { return len(e.queue) }

// SetHorizon stops the run once virtual time would pass t. Events at
// exactly t still fire.
func (e *Engine) SetHorizon(t Time) { e.horizon = t }

// ErrPast is returned when scheduling an event before the current time.
var ErrPast = errors.New("sim: event scheduled in the past")

// At schedules fn to run at absolute time t. It panics if t is before the
// current time: in a discrete-event simulation that is always a logic bug.
func (e *Engine) At(t Time, name string, fn func(*Engine)) *Event {
	return e.AtPriority(t, 0, name, fn)
}

// Rearm schedules the caller's event ev (its Fn, Name and Priority) at
// time t, moving it if it is pending, with no allocation. It takes a
// fresh sequence number, so ties order exactly as Cancel followed by At
// would order them, and panics on a time in the past as At does.
func (e *Engine) Rearm(ev *Event, t Time) {
	if t < e.now {
		panic(fmt.Errorf("%w: now=%v scheduled=%v (%s)", ErrPast, e.now, t, ev.Name))
	}
	ev.At, ev.seq = t, e.seq
	e.seq++
	if ev.index > 0 {
		heap.Fix(&e.queue, ev.index-1)
	} else {
		heap.Push(&e.queue, ev)
	}
}

// After schedules fn to run d seconds from now.
func (e *Engine) After(d Duration, name string, fn func(*Engine)) *Event {
	return e.At(e.now+d, name, fn)
}

// AtPriority schedules fn at time t with an explicit tie-break priority.
// Lower priorities fire first among same-time events.
func (e *Engine) AtPriority(t Time, prio int, name string, fn func(*Engine)) *Event {
	ev := &Event{Priority: prio, Name: name, Fn: fn}
	e.Rearm(ev, t)
	return ev
}

// Cancel removes a pending event. Cancelling an event that is not pending
// is a no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.index == 0 {
		return
	}
	heap.Remove(&e.queue, ev.index-1)
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Step fires the next pending event, advancing the clock to it. It
// returns false when there is nothing left to run (or the horizon or a
// Stop was reached).
func (e *Engine) Step() bool {
	if e.stopped || len(e.queue) == 0 {
		return false
	}
	next := e.queue[0]
	if next.At > e.horizon {
		return false
	}
	heap.Pop(&e.queue)
	e.now = next.At
	e.fired++
	if next.Fn != nil {
		next.Fn(e)
	}
	return true
}

// Run executes events until the queue drains, the horizon passes, or Stop
// is called. It returns the final virtual time.
func (e *Engine) Run() Time {
	for e.Step() {
	}
	return e.now
}

// RunUntil executes events up to and including time t, then returns. The
// clock is advanced to t even if no event fires exactly there, so repeated
// RunUntil calls observe monotonically increasing Now values.
func (e *Engine) RunUntil(t Time) Time {
	for len(e.queue) > 0 && !e.stopped && e.queue[0].At <= t {
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
	return e.now
}
