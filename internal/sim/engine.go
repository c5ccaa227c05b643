package sim

import (
	"container/heap"
	"errors"
	"fmt"
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
// The zero value is an engine at time zero with nothing scheduled.
type Engine struct {
	now   Time
	queue eventHeap
	seq   uint64
}

// NewEngine returns an engine positioned at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time. Engine satisfies Clock.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of events currently scheduled.
func (e *Engine) Pending() int { return len(e.queue) }

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

// Step fires the next pending event, advancing the clock to it. It
// returns false when there is nothing left to run.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	next := e.queue[0]
	heap.Pop(&e.queue)
	e.now = next.At
	if next.Fn != nil {
		next.Fn(e)
	}
	return true
}

// Run executes events until the queue drains. It returns the final
// virtual time.
func (e *Engine) Run() Time {
	for e.Step() {
	}
	return e.now
}
