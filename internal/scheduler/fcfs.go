package scheduler

import (
	"cmp"
	"slices"

	"faucets/internal/job"
	"faucets/internal/machine"
	"faucets/internal/qos"
)

// FCFS is the traditional rigid queueing system most production centers
// ran at the time of the paper: jobs request a fixed processor count (the
// contract's MaxPE, the size the user asked for) and run in arrival
// order. The head of the queue blocks everything behind it — this is the
// scheduler that exhibits the paper's internal-fragmentation scenario
// (§1: an urgent 600-processor job waits while 500 of 1000 processors
// idle under a long 500-processor job).
//
// With Backfill enabled the scheduler adds EASY backfilling: jobs behind
// a blocked head may jump ahead if, by the schedulers's completion
// estimates, they will finish before the head's reserved start time.
type FCFS struct {
	*cluster
	backfill bool
}

var _ Scheduler = (*FCFS)(nil)

// NewFCFS returns a rigid first-come-first-served scheduler.
func NewFCFS(spec machine.Spec, cfg Config) *FCFS { return newRigid(spec, cfg, false) }

// NewBackfill returns a rigid FCFS scheduler with EASY backfilling.
func NewBackfill(spec machine.Spec, cfg Config) *FCFS { return newRigid(spec, cfg, true) }

// newRigid is both: either may take an FCFS the other made.
func newRigid(spec machine.Spec, cfg Config, backfill bool) *FCFS {
	f := rigids.Get().(*FCFS)
	*f = FCFS{cluster: f.cluster.reset(spec, cfg), backfill: backfill}
	return f
}

// Name implements Scheduler.
func (f *FCFS) Name() string {
	if f.backfill {
		return "backfill"
	}
	return "fcfs"
}

// rigidPE is the fixed size a job runs at under a rigid scheduler.
func (f *FCFS) rigidPE(c *qos.Contract) int {
	pe := c.MaxPE
	if pe > f.spec.NumPE {
		pe = f.spec.NumPE
	}
	if pe < c.MinPE {
		pe = c.MinPE
	}
	return pe
}

// Submit implements Scheduler. A rigid job is rejected only when it can
// never run on this machine; otherwise it is queued FIFO.
func (f *FCFS) Submit(now float64, j *job.Job) bool {
	if !f.feasible(j.Contract) {
		return false
	}
	f.queue = append(f.queue, j)
	f.dispatch(now)
	return true
}

// dispatch starts queued jobs in FIFO order; with backfill enabled, jobs
// behind a blocked head may start if they do not delay the head's
// earliest possible start.
func (f *FCFS) dispatch(now float64) {
	// Start from the head while it fits.
	for len(f.queue) > 0 {
		head := f.queue[0]
		pe := f.rigidPE(head.Contract)
		if pe > f.alloc.Free() {
			break
		}
		if err := f.start(now, head, pe); err != nil {
			break
		}
		f.queue = f.queue[1:]
	}
	if !f.backfill || len(f.queue) == 0 {
		return
	}
	// EASY backfill: compute the blocked head's reservation (earliest
	// time enough processors free up, assuming no further arrivals),
	// then start any later job that fits now and, by its own estimate,
	// completes before that reservation.
	head := f.queue[0]
	headPE := f.rigidPE(head.Contract)
	reserve, ok := f.earliestFit(now, headPE)
	if !ok {
		return
	}
	kept := f.queue[:1]
	for _, cand := range f.queue[1:] {
		pe := f.rigidPE(cand.Contract)
		fits := pe <= f.alloc.Free()
		est := now + cand.Contract.ExecTime(pe, f.spec.Speed)
		if fits && est <= reserve {
			if err := f.start(now, cand, pe); err == nil {
				continue
			}
		}
		kept = append(kept, cand)
	}
	f.queue = kept
}

// earliestFit predicts the earliest time at which pe processors will be
// free, assuming running jobs keep their allocations and nothing new
// starts. ok is false when pe exceeds the machine.
func (f *FCFS) earliestFit(now float64, pe int) (float64, bool) {
	if pe > f.spec.NumPE {
		return 0, false
	}
	free := f.alloc.Free()
	if free >= pe {
		return now, true
	}
	// Collect completion events (time, processors released).
	type rel struct {
		t  float64
		pe int
	}
	var rels []rel
	for _, e := range f.running {
		t, ok := e.j.CompletionTime(now)
		if !ok {
			continue
		}
		rels = append(rels, rel{t, e.alloc.Size()})
	}
	slices.SortFunc(rels, func(a, b rel) int { return cmp.Compare(a.t, b.t) })
	for _, r := range rels {
		free += r.pe
		if free >= pe {
			return r.t, true
		}
	}
	return 0, false
}

// Advance implements Scheduler.
func (f *FCFS) Advance(now float64) { f.advanceCore(now, f.dispatch) }

// EstimateCompletion implements Scheduler: the job would start at the
// earliest time its rigid allocation fits behind the current queue, then
// run to completion.
func (f *FCFS) EstimateCompletion(now float64, c *qos.Contract) (float64, bool) {
	if !f.feasible(c) {
		return 0, false
	}
	pe := f.rigidPE(c)
	start, ok := f.earliestFit(now, pe)
	if !ok {
		return 0, false
	}
	// Queued jobs go first; add their serialized runtime as a coarse
	// FIFO delay estimate.
	for _, q := range f.queue {
		start += q.Contract.ExecTime(f.rigidPE(q.Contract), f.spec.Speed)
	}
	return start + c.ExecTime(pe, f.spec.Speed), true
}

// Kill implements Scheduler.
func (f *FCFS) Kill(now float64, id job.ID) bool {
	if !f.killCore(now, id) {
		return false
	}
	f.dispatch(now)
	return true
}
