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
// total processors, water-filling within [min, max]. The returned slice
// is aligned with bs; a zero target means the job cannot be given even
// its minimum.
func shares(total int, bs []bounds) []int {
	n := len(bs)
	target := make([]int, n)
	if n == 0 {
		return target
	}
	// First ensure every job gets its minimum, in order; jobs that don't
	// fit at their minimum get 0 (they stay queued).
	remaining := total
	active := make([]bool, n)
	for i, b := range bs {
		if b.min <= remaining {
			target[i] = b.min
			remaining -= b.min
			active[i] = true
		}
	}
	// Water-fill the remainder among active jobs not yet at max.
	for remaining > 0 {
		// Count how many can still grow.
		growable := 0
		for i := range bs {
			if active[i] && target[i] < bs[i].max {
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
		progressed := false
		for i := range bs {
			if remaining == 0 {
				break
			}
			if !active[i] || target[i] >= bs[i].max {
				continue
			}
			grant := per
			if target[i]+grant > bs[i].max {
				grant = bs[i].max - target[i]
			}
			if grant > remaining {
				grant = remaining
			}
			if grant > 0 {
				target[i] += grant
				remaining -= grant
				progressed = true
			}
		}
		if !progressed {
			break
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

// reallocate recomputes targets and applies them: shrink first (freeing
// processors), then start newly admitted jobs, then expand.
func (e *Equipartition) reallocate(now float64) {
	// Candidate set: running jobs in deterministic order, then queued
	// jobs FIFO.
	run := e.Running()
	cands := make([]*job.Job, 0, len(run)+len(e.queue))
	cands = append(cands, run...)
	cands = append(cands, e.queue...)
	bs := make([]bounds, len(cands))
	for i, j := range cands {
		bs[i] = jobBounds(j)
	}
	target := shares(e.spec.NumPE, bs)

	// Phase 1: shrink running jobs whose target is below their current
	// size. Zero-target running jobs should never happen (they hold
	// MinPE already), but guard by skipping.
	for i, j := range cands {
		ent, isRunning := e.running[j.ID]
		if !isRunning || target[i] == 0 || target[i] >= ent.alloc.Size() {
			continue
		}
		if err := e.alloc.Shrink(ent.alloc, target[i]); err == nil {
			_ = j.Reconfigure(now, target[i], e.cfg.ReconfigLatency)
		}
	}
	// Phase 2: start queued jobs with a non-zero target, FIFO.
	var stillQueued []*job.Job
	for i, j := range cands {
		if _, isRunning := e.running[j.ID]; isRunning {
			continue
		}
		if target[i] == 0 {
			stillQueued = append(stillQueued, j)
			continue
		}
		if err := e.start(now, j, target[i]); err != nil {
			stillQueued = append(stillQueued, j)
		}
	}
	e.queue = stillQueued
	// Phase 3: expand running jobs up to their targets.
	for i, j := range cands {
		ent, isRunning := e.running[j.ID]
		if !isRunning || target[i] <= ent.alloc.Size() {
			continue
		}
		if err := e.alloc.Expand(ent.alloc, target[i]); err == nil {
			_ = j.Reconfigure(now, target[i], e.cfg.ReconfigLatency)
		}
	}
}

// Advance implements Scheduler.
func (e *Equipartition) Advance(now float64) []*job.Job {
	return e.advanceCore(now, func(t float64) { e.reallocate(t) })
}

// EstimateCompletion implements Scheduler: assume the new job receives
// the equipartition share it would get if it arrived now, and runs at
// that share to completion. This is an estimate — shares change as other
// jobs come and go — but it is the basis the bid generator needs.
func (e *Equipartition) EstimateCompletion(now float64, c *qos.Contract) (float64, bool) {
	if !e.feasible(c) {
		return 0, false
	}
	run := e.Running()
	bs := make([]bounds, 0, len(run)+len(e.queue)+1)
	for _, j := range run {
		bs = append(bs, jobBounds(j))
	}
	for _, j := range e.queue {
		bs = append(bs, jobBounds(j))
	}
	bs = append(bs, bounds{min: c.MinPE, max: c.MaxPE})
	target := shares(e.spec.NumPE, bs)
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
