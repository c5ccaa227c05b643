package telemetry

import (
	"sync"
	"time"
)

// Span names for the job lifecycle, in their canonical order. A completed
// job's trace reads submit → bid → contract → start → [shrink/expand…] →
// finish → settle; the adaptive reallocation spans may appear any number
// of times (including zero) between start and finish.
const (
	SpanSubmit   = "submit"   // client minted the job and began selection (§5)
	SpanBid      = "bid"      // winning bid chosen under the selection criterion
	SpanContract = "contract" // two-phase commit awarded the contract (§5.3)
	SpanStart    = "start"    // the daemon's scheduler started the job
	SpanShrink   = "shrink"   // adaptive reallocation removed processors (§4)
	SpanExpand   = "expand"   // adaptive reallocation added processors (§4)
	SpanFinish   = "finish"   // the job reached a terminal state
	SpanSettle   = "settle"   // the Central Server acknowledged settlement
)

// SpanEvent is one timestamped step in a job's lifecycle.
type SpanEvent struct {
	Job    string    `json:"job"`
	Name   string    `json:"name"`
	Wall   time.Time `json:"wall"`
	Detail string    `json:"detail,omitempty"`
}

// Tracer records span events keyed by job ID. It is in-process and
// bounded: once MaxJobs traces exist, recording a new job evicts the
// oldest. A nil *Tracer is a valid no-op sink, so instrumented code
// needs no conditionals.
//
// The traces are a ring in recording order: past the bound a new job
// takes the oldest one's slot and event slice (Events hands out copies).
type Tracer struct {
	mu      sync.Mutex
	slot    map[string]int // job → its index in ring
	ring    []traceSlot    // grows to maxJobs, then wraps
	oldest  int            // once full: the slot the next new job evicts
	maxJobs int
}

type traceSlot struct {
	job    string
	events []SpanEvent
}

// NewTracer returns a tracer bounded to maxJobs job traces
// (<=0 selects the default of 4096).
func NewTracer(maxJobs int) *Tracer {
	if maxJobs <= 0 {
		maxJobs = 4096
	}
	return &Tracer{slot: map[string]int{}, maxJobs: maxJobs}
}

// Record appends a span event to the job's trace.
func (t *Tracer) Record(job, name, detail string) {
	if t == nil || job == "" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	i, ok := t.slot[job]
	if !ok {
		if i = len(t.ring); i < t.maxJobs {
			// Sized once for a trip's six spans, not grown 1→2→4→8.
			t.ring = append(t.ring, traceSlot{events: make([]SpanEvent, 0, 8)})
		} else {
			i, t.oldest = t.oldest, (t.oldest+1)%t.maxJobs
			delete(t.slot, t.ring[i].job)
		}
		t.slot[job] = i
		t.ring[i].job, t.ring[i].events = job, t.ring[i].events[:0]
	}
	t.ring[i].events = append(t.ring[i].events, SpanEvent{Job: job, Name: name, Wall: time.Now(), Detail: detail})
}

// Events returns a copy of the job's trace in recording order
// (nil if the job is unknown).
func (t *Tracer) Events(job string) []SpanEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if i, ok := t.slot[job]; ok {
		return append([]SpanEvent(nil), t.ring[i].events...)
	}
	return nil
}

// Jobs lists traced job IDs, oldest first.
func (t *Tracer) Jobs() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var jobs []string
	for k := range t.ring {
		jobs = append(jobs, t.ring[(t.oldest+k)%len(t.ring)].job)
	}
	return jobs
}
