package scheduler

import (
	"slices"

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
	// bs and target are the working set of bases and reallocate.
	bs     []bounds
	target []int
	// kept is the base plan every bid (EstimateCompletion) reads until
	// Submit, Advance, Kill or Evict changes the state it was built from.
	kept keptPlan
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
	e.kept.fresh = false
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

// bases lists the bounds of the running jobs in ID order, then the
// queue FIFO, into the scheduler's scratch.
func (e *Equipartition) bases() []bounds {
	e.bs = e.bs[:0]
	for _, ent := range e.running {
		e.bs = append(e.bs, jobBounds(ent.j))
	}
	for _, j := range e.queue {
		e.bs = append(e.bs, jobBounds(j))
	}
	return e.bs
}

// keptPlan is the minimum pass of shares over the base jobs — running,
// then queued — which is all an arrival's share depends on: the arrival
// is last, so every round grants the base jobs theirs first.
type keptPlan struct {
	fresh bool
	free  int   // processors left once every served base job has its min
	head  []int // each served base job's max−min headroom, ascending, >0
	sum   []int // sum[i] is head[0] + … + head[i-1]
}

// keep returns the kept plan, rebuilt if the state moved since.
func (e *Equipartition) keep() *keptPlan {
	if !e.kept.fresh {
		e.kept.build(e.spec.NumPE, e.bases())
	}
	return &e.kept
}

// build runs shares' minimum pass over bs into the plan's own slices.
func (p *keptPlan) build(total int, bs []bounds) {
	p.free, p.head = total, p.head[:0]
	for _, b := range bs {
		if b.min > p.free {
			continue
		}
		p.free -= b.min
		if b.max > b.min {
			p.head = append(p.head, b.max-b.min)
		}
	}
	slices.Sort(p.head)
	p.sum = append(p.sum[:0], 0)
	for i, h := range p.head {
		p.sum = append(p.sum, p.sum[i]+h)
	}
	p.fresh = true
}

// share is the arrival's element of shares over the base jobs plus a, in
// O(rounds·log n), for minimums of at least one processor (a validated
// contract's). Every base job whose headroom exceeds a round's level has
// been granted exactly level so far, so a round grants the base jobs one
// prefix-sum difference for those that saturate and per for the rest,
// and the arrival whatever per leaves.
func (p *keptPlan) share(a bounds) int {
	if a.min > p.free {
		return 0
	}
	pe, left := a.min, p.free-a.min
	n, level, k := len(p.head), 0, 0 // head[k:] still grow
	for left > 0 {
		grow := n - k
		if pe < a.max {
			grow++
		}
		if grow == 0 {
			break
		}
		per := max(left/grow, 1)
		m, _ := slices.BinarySearch(p.head[k:], level+per+1) // head[k:k+m] saturate
		m += k
		base := p.sum[m] - p.sum[k] - level*(m-k) + per*(n-m)
		if base >= left {
			break
		}
		left -= base
		if pe < a.max {
			grant := min(per, a.max-pe, left)
			pe += grant
			left -= grant
		}
		level, k = level+per, m
	}
	return pe
}

// reallocate water-fills the machine over bases, into the scheduler's
// scratch, and applies the shares.
func (e *Equipartition) reallocate(now float64) {
	e.target = shares(e.spec.NumPE, e.bases(), e.target)
	target := e.target
	nrun := len(e.running)
	for i := range e.running {
		e.running[i].target = target[i]
	}
	e.apply(now, func(k int) int { return target[nrun+k] })
}

// Advance implements Scheduler.
func (e *Equipartition) Advance(now float64) []*job.Job {
	// Progress moves phase bounds even when nothing is due.
	e.kept.fresh = false
	return e.advanceCore(now, e.reallocate)
}

// EstimateCompletion implements Scheduler: assume the new job receives
// the equipartition share it would get if it arrived now, and runs at
// that share to completion. This is an estimate — shares change as other
// jobs come and go — but it is the basis the bid generator needs. It
// reads the kept plan, so a bid against an unchanged state costs a few
// binary searches, not a water-fill over every job.
func (e *Equipartition) EstimateCompletion(now float64, c *qos.Contract) (float64, bool) {
	if !e.feasible(c) {
		return 0, false
	}
	pe := e.keep().share(bounds{min: c.MinPE, max: c.MaxPE})
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
	e.kept.fresh = false
	if !e.killCore(now, id) {
		return false
	}
	e.reallocate(now)
	return true
}

// Evict implements Scheduler.
func (e *Equipartition) Evict(now float64, id job.ID) *job.Job {
	e.kept.fresh = false
	return e.cluster.Evict(now, id)
}
