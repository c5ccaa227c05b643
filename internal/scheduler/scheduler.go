// Package scheduler implements the Adaptive Queueing System (the paper's
// Cluster Manager, CM) and its pluggable allocation strategies (§4.1):
//
//   - FCFS: a traditional rigid queueing system — the baseline that
//     suffers the paper's internal-fragmentation problem.
//   - Backfill: FCFS with EASY backfill — a stronger rigid baseline.
//   - Equipartition: the adaptive strategy of the paper's companion work
//     [15]: "Each job gets a proportionate share of available processors,
//     while respecting the specified upper and lower bounds on the number
//     of processors for each job."
//   - Profit: the payoff-aware strategy of §4.1: a new job is accepted
//     only if its payoff at least compensates the payoff lost by delaying
//     the jobs already committed, found by lookahead over the
//     processor-time Gantt chart.
//
// The scheduler is triggered when a new job arrives in the system and
// when a running job finishes (or requests a change in the number of
// processors assigned to it) — exactly the trigger points the paper
// names.
package scheduler

import (
	"fmt"
	"sort"

	"faucets/internal/job"
	"faucets/internal/machine"
	"faucets/internal/qos"
)

// Scheduler is the interface every Cluster Manager strategy implements.
// It is deliberately clock-agnostic: callers pass the current time, so
// the same scheduler runs inside the discrete-event simulator and inside
// the live Faucets Daemon.
type Scheduler interface {
	// Name identifies the strategy ("fcfs", "equipartition", …).
	Name() string
	// Spec returns the machine this scheduler manages.
	Spec() machine.Spec
	// Submit offers a job at time now. It returns false when the job is
	// rejected outright (cannot ever run, or fails admission control);
	// true means the job is running or queued.
	Submit(now float64, j *job.Job) bool
	// Advance moves virtual time forward to now, completing jobs whose
	// work finishes at or before now, and returns them in completion
	// order.
	Advance(now float64) []*job.Job
	// NextCompletion predicts the next instant at which Advance has
	// something to do under current allocations: the earliest completion
	// among running jobs, or an earlier phase boundary (a reallocation
	// point that can move every completion). An executor arms its one
	// timer for it. ok is false when nothing is running.
	NextCompletion(now float64) (t float64, ok bool)
	// EstimateCompletion predicts when a hypothetical job with the given
	// contract would complete if submitted now, without admitting it.
	// ok is false when the job cannot be accommodated.
	EstimateCompletion(now float64, c *qos.Contract) (t float64, ok bool)
	// UsedPEs returns the number of busy processors.
	UsedPEs() int
	// QueueLen returns the number of admitted-but-waiting jobs.
	QueueLen() int
	// RunningCount returns the number of executing jobs.
	RunningCount() int
	// Running returns the currently executing jobs (callers must not
	// mutate them).
	Running() []*job.Job
	// Kill terminates a job (running or queued) at time now, freeing its
	// processors; remaining capacity is redistributed. It returns false
	// when the job is unknown or already terminal.
	Kill(now float64, id job.ID) bool
	// Waiting returns admitted jobs that are not running: queued
	// arrivals and checkpointed preemption victims, in queue order.
	Waiting() []*job.Job
	// Evict withdraws a waiting (non-running) job from this scheduler so
	// the grid can restart it elsewhere — the §4.1 migration to a
	// "subcontracted" Compute Server. It returns nil when the job is not
	// waiting here.
	Evict(now float64, id job.ID) *job.Job
}

// Config carries the knobs shared by all strategies.
type Config struct {
	// ReconfigLatency is the stall, in seconds, an adaptive job suffers
	// when its allocation changes (the Charm++ migration cost).
	ReconfigLatency float64
	// Lookahead bounds how far into the future the profit strategy will
	// reserve a start slot for a job it cannot run immediately
	// ("can be scheduled to run now or at a finite lookahead in future",
	// §4.1). Zero means "run now or reject".
	Lookahead float64
	// Preempt lets the profit strategy checkpoint low-payoff running
	// jobs to make room for high-payoff arrivals ("jobs may also have to
	// be check-pointed and restarted at a later point in time", §4.1;
	// the intranet context of §5.5.4 runs the same mechanism with
	// management-assigned priorities expressed as payoff functions).
	// Preempted jobs restart from their checkpoint when capacity frees.
	Preempt bool
}

// entry pairs a running job with its processor allocation.
type entry struct {
	j     *job.Job
	alloc *machine.Alloc
}

// cluster is the machinery shared by every strategy: the allocator, the
// running set, the admitted queue, and completion accounting.
type cluster struct {
	spec  machine.Spec
	alloc *machine.Allocator
	cfg   Config

	running map[job.ID]*entry
	queue   []*job.Job // admitted, waiting to start (FIFO)
}

func newCluster(spec machine.Spec, cfg Config) *cluster {
	if err := spec.Validate(); err != nil {
		panic(fmt.Sprintf("scheduler: %v", err))
	}
	return &cluster{
		spec:    spec,
		alloc:   machine.NewAllocator(spec.NumPE),
		cfg:     cfg,
		running: make(map[job.ID]*entry),
	}
}

func (c *cluster) Spec() machine.Spec { return c.spec }
func (c *cluster) UsedPEs() int       { return c.alloc.Used() }
func (c *cluster) QueueLen() int      { return len(c.queue) }
func (c *cluster) RunningCount() int  { return len(c.running) }

func (c *cluster) Running() []*job.Job {
	out := make([]*job.Job, 0, len(c.running))
	for _, e := range c.running {
		out = append(out, e.j)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// feasible reports whether the contract could ever run on this machine.
func (c *cluster) feasible(ct *qos.Contract) bool {
	if ct.MinPE > c.spec.NumPE {
		return false
	}
	return ct.FitsMemory(ct.MinPE, c.spec.MemPerPE)
}

// start launches a job on pe processors right now.
func (c *cluster) start(now float64, j *job.Job, pe int) error {
	a, err := c.alloc.Alloc(pe)
	if err != nil {
		return err
	}
	if err := j.Start(now, pe, c.spec.Speed); err != nil {
		c.alloc.Release(a)
		return err
	}
	c.running[j.ID] = &entry{j: j, alloc: a}
	return nil
}

// finish releases a completed (or killed) job's processors.
func (c *cluster) finish(id job.ID) {
	e, ok := c.running[id]
	if !ok {
		return
	}
	c.alloc.Release(e.alloc)
	delete(c.running, id)
}

// nextCompletion returns the earliest predicted completion among running
// jobs, assuming allocations stay fixed.
func (c *cluster) nextCompletion(now float64) (float64, bool) {
	best, ok := 0.0, false
	for _, e := range c.running {
		t, tok := e.j.CompletionTime(now)
		if !tok {
			continue
		}
		if !ok || t < best {
			best, ok = t, true
		}
	}
	return best, ok
}

// nextPhaseBoundary returns the earliest upcoming phase transition among
// running multi-phase jobs.
func (c *cluster) nextPhaseBoundary(now float64) (float64, bool) {
	best, ok := 0.0, false
	for _, e := range c.running {
		t, tok := e.j.NextPhaseBoundary(now)
		if !tok {
			continue
		}
		if !ok || t < best {
			best, ok = t, true
		}
	}
	return best, ok
}

// nextEvent returns the earliest pending completion or phase boundary,
// and whether it is a boundary.
func (c *cluster) nextEvent(now float64) (t float64, boundary, ok bool) {
	tc, okc := c.nextCompletion(now)
	tb, okb := c.nextPhaseBoundary(now)
	if okb && (!okc || tb < tc) {
		return tb, true, true
	}
	return tc, false, okc
}

// NextCompletion implements Scheduler for every strategy.
func (c *cluster) NextCompletion(now float64) (float64, bool) {
	t, _, ok := c.nextEvent(now)
	return t, ok
}

// advanceCore completes jobs up to time now, invoking onChange(t) at
// each completion instant and each phase boundary, so the owning
// strategy can reallocate and start queued work at exactly the right
// moments. Finished jobs are returned in completion order.
func (c *cluster) advanceCore(now float64, onChange func(t float64)) []*job.Job {
	var done []*job.Job
	for {
		t, boundary, ok := c.nextEvent(now)
		if !ok || t > now {
			break
		}
		// Advance every running job to the event instant — nudged just
		// past it for phase boundaries, so EffectiveBounds reflects the
		// new phase. Either way, any job whose work completes by the
		// target is finished here (a completion can coincide with a
		// boundary within the nudge).
		target := t
		if boundary {
			target += 1e-9
		}
		var finished []*job.Job
		for _, e := range c.running {
			if e.j.AdvanceTo(target) {
				finished = append(finished, e.j)
			}
		}
		sort.Slice(finished, func(i, j int) bool { return finished[i].ID < finished[j].ID })
		for _, j := range finished {
			c.finish(j.ID)
			done = append(done, j)
		}
		if onChange != nil {
			onChange(t)
		}
	}
	// Book progress up to now for everything still running. A job whose
	// completion lands within floating-point epsilon of now can finish
	// here even though the prediction loop above placed it just past now
	// — collect it like any other completion.
	var late []*job.Job
	for _, e := range c.running {
		if e.j.AdvanceTo(now) {
			late = append(late, e.j)
		}
	}
	if len(late) > 0 {
		sort.Slice(late, func(i, j int) bool { return late[i].ID < late[j].ID })
		for _, j := range late {
			c.finish(j.ID)
			done = append(done, j)
		}
		if onChange != nil {
			onChange(now)
		}
	}
	return done
}

// Waiting implements the shared part of Scheduler.Waiting.
func (c *cluster) Waiting() []*job.Job {
	return append([]*job.Job(nil), c.queue...)
}

// Evict implements the shared part of Scheduler.Evict: withdraw a
// waiting job. Running jobs cannot be evicted (checkpoint them first).
func (c *cluster) Evict(now float64, id job.ID) *job.Job {
	for i, q := range c.queue {
		if q.ID == id {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			return q
		}
	}
	return nil
}

// killCore terminates a running or queued job and frees its resources.
// The caller reallocates afterwards.
func (c *cluster) killCore(now float64, id job.ID) bool {
	if e, ok := c.running[id]; ok {
		e.j.AdvanceTo(now)
		if e.j.State().Terminal() {
			// Completed at or before the kill instant: let the normal
			// completion path report it instead.
			return false
		}
		if err := e.j.Kill(now); err != nil {
			return false
		}
		c.finish(id)
		return true
	}
	for i, q := range c.queue {
		if q.ID == id {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			_ = q.Kill(now)
			return true
		}
	}
	return false
}
