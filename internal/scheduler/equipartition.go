package scheduler

import (
	"faucets/internal/job"
	"faucets/internal/machine"
	"faucets/internal/qos"
)

// Equipartition is the adaptive job scheduler of the paper's companion
// work [15], the earliest strategy the authors implemented: "a simple
// strategy that tries to maximize system utilization by using a variant
// of equipartitioning: each job gets a proportionate share of available
// processors, while respecting the specified upper and lower bounds on
// the number of processors for each job."
//
// On every arrival and completion the scheduler recomputes the fair share
// by water-filling: processors are divided equally among jobs, jobs
// pinned at their MinPE or MaxPE bound are clamped, and the remainder is
// redistributed among the rest. Running jobs are shrunk or expanded to
// their new targets (paying the reconfiguration latency), and queued jobs
// start as soon as the shares leave room for their MinPE.
type Equipartition struct {
	*cluster
	// bs and target are plan's working set, reused so that a bid
	// (EstimateCompletion) allocates nothing.
	bs     []bounds
	target []int
}

var _ Scheduler = (*Equipartition)(nil)

// NewEquipartition returns the adaptive equipartition scheduler.
func NewEquipartition(spec machine.Spec, cfg Config) *Equipartition {
	return &Equipartition{cluster: newCluster(spec, cfg)}
}

// Name implements Scheduler.
func (e *Equipartition) Name() string { return "equipartition" }

// Submit implements Scheduler: any feasible job is admitted (the strategy
// maximizes utilization, it does no profit-based admission control).
func (e *Equipartition) Submit(now float64, j *job.Job) bool {
	if !e.feasible(j.Contract) {
		return false
	}
	e.queue = append(e.queue, j)
	e.reallocate(now)
	return true
}

// bounds is a [min, max] processor range.
type bounds struct{ min, max int }

// shares computes the equipartition target for each bounds pair over
// total processors, water-filling within [min, max]. The result reuses
// target's storage and is aligned with bs; a zero target means the job
// cannot be given even its minimum (a validated contract's is at least
// one processor).
func shares(total int, bs []bounds, target []int) []int {
	target = append(target[:0], make([]int, len(bs))...)
	// First ensure every job gets its minimum, in order; jobs that don't
	// fit at their minimum get 0 (they stay queued).
	remaining := total
	for i, b := range bs {
		if b.min <= remaining {
			target[i] = b.min
			remaining -= b.min
		}
	}
	// Water-fill the remainder among served jobs not yet at max.
	for remaining > 0 {
		// Count how many can still grow.
		growable := 0
		for i := range bs {
			if target[i] > 0 && target[i] < bs[i].max {
				growable++
			}
		}
		if growable == 0 {
			break
		}
		per := remaining / growable
		if per == 0 {
			per = 1
		}
		for i := range bs {
			if remaining == 0 {
				break
			}
			if target[i] == 0 || target[i] >= bs[i].max {
				continue
			}
			grant := min(per, bs[i].max-target[i], remaining)
			target[i] += grant
			remaining -= grant
		}
	}
	return target
}

// jobBounds returns a job's effective processor range — phase-aware for
// multi-phase contracts (§2.1), so a job in a narrow phase releases the
// processors it cannot use.
func jobBounds(j *job.Job) bounds {
	min, max := j.EffectiveBounds()
	return bounds{min: min, max: max}
}

// plan water-fills the machine over the running jobs in ID order, then
// the queue FIFO, then — for an estimate — one hypothetical arrival. The
// result is aligned with that sequence and lives in the scheduler's
// scratch until the next call.
func (e *Equipartition) plan(arrival ...bounds) []int {
	e.bs = e.bs[:0]
	for _, ent := range e.running {
		e.bs = append(e.bs, jobBounds(ent.j))
	}
	for _, j := range e.queue {
		e.bs = append(e.bs, jobBounds(j))
	}
	e.bs = append(e.bs, arrival...)
	e.target = shares(e.spec.NumPE, e.bs, e.target)
	return e.target
}

// reallocate recomputes the fair shares and applies them.
func (e *Equipartition) reallocate(now float64) {
	target := e.plan()
	nrun := len(e.running)
	for i := range e.running {
		e.running[i].target = target[i]
	}
	e.apply(now, func(k int) int { return target[nrun+k] })
}

// Advance implements Scheduler.
func (e *Equipartition) Advance(now float64) []*job.Job {
	return e.advanceCore(now, e.reallocate)
}

// EstimateCompletion implements Scheduler: assume the new job receives
// the equipartition share it would get if it arrived now, and runs at
// that share to completion. This is an estimate — shares change as other
// jobs come and go — but it is the basis the bid generator needs.
func (e *Equipartition) EstimateCompletion(now float64, c *qos.Contract) (float64, bool) {
	if !e.feasible(c) {
		return 0, false
	}
	target := e.plan(bounds{min: c.MinPE, max: c.MaxPE})
	pe := target[len(target)-1]
	if pe == 0 {
		// Cannot start immediately; estimate a wait until the earliest
		// completion frees capacity, then a fair share.
		t, ok := e.nextCompletion(now)
		if !ok {
			return 0, false
		}
		return t + c.ExecTime(c.MinPE, e.spec.Speed), true
	}
	return now + c.ExecTime(pe, e.spec.Speed), true
}

// Kill implements Scheduler.
func (e *Equipartition) Kill(now float64, id job.ID) bool {
	if !e.killCore(now, id) {
		return false
	}
	e.reallocate(now)
	return true
}
