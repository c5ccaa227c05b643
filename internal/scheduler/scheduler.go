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
	"cmp"
	"fmt"
	"slices"
	"sync"

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
	// Submit offers a job at time now. It returns false when the job is
	// rejected outright (cannot ever run, or fails admission control);
	// true means the job is running or queued.
	Submit(now float64, j *job.Job) bool
	// Advance moves virtual time forward to now, completing jobs whose
	// work finishes at or before now.
	Advance(now float64)
	// Record makes *log, which the caller owns and truncates, the log
	// every later change to a running job's processors is appended to.
	Record(log *[]Event)
	// NextCompletion predicts the next instant at which Advance has
	// something to do under current allocations: the earliest completion
	// among running jobs, or an earlier phase boundary (a reallocation
	// point that can move every completion). An executor arms its one
	// timer for it. A boundary the caller is already late for is
	// reported where it was, before now. ok is false when nothing is
	// running.
	NextCompletion(now float64) (t float64, ok bool)
	// EstimateCompletion predicts when a job with contract c, submitted
	// now, would complete, without admitting it. ok is a promise (§5.3):
	// Submit at the same instant would accept that job.
	EstimateCompletion(now float64, c *qos.Contract) (t float64, ok bool)
	// UsedPEs returns the number of busy processors.
	UsedPEs() int
	// QueueLen returns the number of admitted-but-waiting jobs.
	QueueLen() int
	// RunningCount returns the number of executing jobs.
	RunningCount() int
	// Running appends the executing jobs to dst, ascending by ID.
	Running(dst []*job.Job) []*job.Job
	// Kill terminates a job (running or queued) at time now, freeing its
	// processors; remaining capacity is redistributed. It returns false
	// when the job is unknown or already terminal.
	Kill(now float64, id job.ID) bool
	// Waiting returns admitted jobs that are not running: queued
	// arrivals and checkpointed preemption victims, in queue order.
	Waiting() []*job.Job
	// Evict withdraws a waiting (non-running) job from this scheduler so
	// the grid can restart it elsewhere — the §4.1 migration to a
	// "subcontracted" Compute Server. It reports false when the job is
	// not waiting here.
	Evict(now float64, id job.ID) bool
}

// Factory builds a Scheduler for one machine.
type Factory func(machine.Spec, Config) Scheduler

// ByName returns the constructor of the named strategy; the empty name
// means equipartition. It is the one table the binaries, the scenario
// engine and the experiments resolve a -scheduler name through.
func ByName(name string) (Factory, error) {
	switch name {
	case "", "equipartition":
		return func(sp machine.Spec, c Config) Scheduler { return NewEquipartition(sp, c) }, nil
	case "fcfs":
		return func(sp machine.Spec, c Config) Scheduler { return NewFCFS(sp, c) }, nil
	case "backfill":
		return func(sp machine.Spec, c Config) Scheduler { return NewBackfill(sp, c) }, nil
	case "profit":
		return func(sp machine.Spec, c Config) Scheduler { return NewProfit(sp, c) }, nil
	}
	return nil, fmt.Errorf("unknown scheduler %q (want fcfs, backfill, equipartition or profit)", name)
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

// Kind is what happened to a running job's processors.
type Kind uint8

const (
	Start  Kind = iota + 1 // started, or restarted from a checkpoint
	Shrink                 // fewer processors
	Expand                 // more processors
	Finish                 // its work completed
	Stop                   // killed or checkpointed
)

// Event is one change to a job's processors, From → To, at virtual
// instant T. Nothing else moves a job between processor counts.
type Event struct {
	T        float64
	Job      *job.Job
	Kind     Kind
	From, To int
}

// entry is one member of the running set: a job, its processors, and
// the size the latest reallocation planned for it.
type entry struct {
	j      *job.Job
	alloc  *machine.Alloc
	target int
}

// cluster is the machinery shared by every strategy: the allocator, the
// running set, the admitted queue, and completion accounting.
type cluster struct {
	spec  machine.Spec
	alloc *machine.Allocator
	cfg   Config

	// running is the one running set, strictly ascending by job ID — the
	// order every reader wants. Only start inserts and only finish
	// removes; readers walk it in place.
	running []entry
	queue   []*job.Job // admitted, waiting to start (FIFO)
	log     *[]Event   // Record's, or nil
}

// reset returns c (nil: a new cluster) as a new one for spec whose running
// set, queue and allocator keep their room; running allocations drop.
func (c *cluster) reset(spec machine.Spec, cfg Config) *cluster {
	if err := spec.Validate(); err != nil {
		panic(fmt.Sprintf("scheduler: %v", err))
	}
	if c == nil {
		return &cluster{spec: spec, alloc: machine.NewAllocator(spec.NumPE), cfg: cfg}
	}
	c.alloc.Reset(spec.NumPE)
	*c = cluster{spec: spec, alloc: c.alloc, cfg: cfg, running: c.running[:0], queue: c.queue[:0]}
	return c
}

// Recycled schedulers, one pool per kind: a constructor takes its own.
var (
	equipartitions = sync.Pool{New: func() any { return new(Equipartition) }}
	rigids         = sync.Pool{New: func() any { return new(FCFS) }}
	profits        = sync.Pool{New: func() any { return new(Profit) }}
)

// Recycle hands s, which its caller is done with, to the next constructor
// of its kind, which resets it but keeps its storage; other types drop.
func Recycle(s Scheduler) {
	switch s := s.(type) {
	case *Equipartition:
		equipartitions.Put(s)
	case *FCFS:
		rigids.Put(s)
	case *Profit:
		profits.Put(s)
	}
}

func (c *cluster) UsedPEs() int      { return c.alloc.Used() }
func (c *cluster) QueueLen() int     { return len(c.queue) }
func (c *cluster) RunningCount() int { return len(c.running) }

// Running implements Scheduler.
func (c *cluster) Running(dst []*job.Job) []*job.Job {
	for _, e := range c.running {
		dst = append(dst, e.j)
	}
	return dst
}

// Record implements Scheduler.
func (c *cluster) Record(log *[]Event) { c.log = log }

// record appends one event to the log, if there is one.
func (c *cluster) record(t float64, j *job.Job, k Kind, from, to int) {
	if c.log != nil {
		*c.log = append(*c.log, Event{t, j, k, from, to})
	}
}

// find returns id's index in the running set, or where it would go.
func (c *cluster) find(id job.ID) (int, bool) {
	return slices.BinarySearchFunc(c.running, id, func(e entry, id job.ID) int {
		return cmp.Compare(e.j.ID, id)
	})
}

// feasible reports whether the contract could ever run on this machine.
func (c *cluster) feasible(ct *qos.Contract) bool {
	return ct.FitsMachine(c.spec.NumPE, c.spec.MemPerPE)
}

// start launches a job on pe processors right now.
func (c *cluster) start(now float64, j *job.Job, pe int) error {
	i, dup := c.find(j.ID)
	if dup {
		return fmt.Errorf("scheduler: job %s is already running", j.ID)
	}
	a, err := c.alloc.Alloc(pe)
	if err != nil {
		return err
	}
	if err := j.Start(now, pe, c.spec.Speed); err != nil {
		c.alloc.Release(a)
		return err
	}
	c.running = slices.Insert(c.running, i, entry{j: j, alloc: a, target: pe})
	c.record(now, j, Start, 0, pe)
	return nil
}

// finish releases the processors of running[i] at t — completed (kind
// Finish), killed or checkpointed (Stop) — and drops it from the running
// set.
func (c *cluster) finish(t float64, i int, kind Kind) {
	e := c.running[i]
	c.record(t, e.j, kind, e.alloc.Size(), 0)
	c.alloc.Release(e.alloc)
	c.running = slices.Delete(c.running, i, i+1)
}

// apply moves the machine to a plan: every running job's planned size is
// in its entry.target (0: leave it alone) and queued(k) is queue[k]'s
// (0: keep waiting). Shrink first, freeing processors; then start queued
// jobs FIFO — a started job enters the running set at its target, so the
// last pass skips it; then expand.
func (c *cluster) apply(now float64, queued func(k int) int) {
	for _, ent := range c.running {
		from := ent.alloc.Size()
		if ent.target == 0 || ent.target >= from {
			continue
		}
		if err := c.alloc.Shrink(ent.alloc, ent.target); err == nil {
			_ = ent.j.Reconfigure(now, ent.target, c.cfg.ReconfigLatency)
			c.record(now, ent.j, Shrink, from, ent.target)
		}
	}
	kept := c.queue[:0]
	for k, j := range c.queue {
		if t := queued(k); t == 0 || c.start(now, j, t) != nil {
			kept = append(kept, j)
		}
	}
	clear(c.queue[len(kept):])
	c.queue = kept
	for _, ent := range c.running {
		from := ent.alloc.Size()
		if ent.target <= from {
			continue
		}
		if err := c.alloc.Expand(ent.alloc, ent.target); err == nil {
			_ = ent.j.Reconfigure(now, ent.target, c.cfg.ReconfigLatency)
			c.record(now, ent.j, Expand, from, ent.target)
		}
	}
}

// earliest returns the earliest instant at reports over the running jobs.
func (c *cluster) earliest(at func(*job.Job) (float64, bool)) (best float64, ok bool) {
	for _, e := range c.running {
		if t, tok := at(e.j); tok && (!ok || t < best) {
			best, ok = t, true
		}
	}
	return best, ok
}

// nextCompletion returns the earliest predicted completion among running
// jobs, assuming allocations stay fixed.
func (c *cluster) nextCompletion(now float64) (float64, bool) {
	return c.earliest(func(j *job.Job) (float64, bool) { return j.CompletionTime(now) })
}

// nextEvent returns the earliest pending completion or phase boundary,
// and whether it is a boundary. A boundary is where the jobs' accounted
// progress puts it, so it lies before now when the caller is late.
func (c *cluster) nextEvent(now float64) (t float64, boundary, ok bool) {
	tc, okc := c.nextCompletion(now)
	tb, okb := c.earliest((*job.Job).NextPhaseBoundary) // the upcoming phase transition
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

// sweep books every running job's progress up to t and finishes, in ID
// order, those whose work completes by then. It reports whether any did.
func (c *cluster) sweep(t float64) (finished bool) {
	for i := 0; i < len(c.running); {
		if j := c.running[i].j; j.AdvanceTo(t) {
			c.finish(j.FinishTime, i, Finish)
			finished = true
		} else {
			i++
		}
	}
	return finished
}

// advanceCore completes jobs up to time now, invoking onChange(t) at
// each completion instant and each phase boundary, so the owning
// strategy can reallocate and start queued work at exactly the right
// moments.
func (c *cluster) advanceCore(now float64, onChange func(t float64)) {
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
		c.sweep(target)
		onChange(t)
	}
	// Book progress up to now for everything still running. A job whose
	// completion lands within floating-point epsilon of now can finish
	// here even though the prediction loop above placed it just past now
	// — collect it like any other completion.
	if c.sweep(now) {
		onChange(now)
	}
}

// Waiting implements the shared part of Scheduler.Waiting.
func (c *cluster) Waiting() []*job.Job {
	return append([]*job.Job(nil), c.queue...)
}

// Evict implements the shared part of Scheduler.Evict: withdraw a
// waiting job. Running jobs cannot be evicted (checkpoint them first).
func (c *cluster) Evict(now float64, id job.ID) bool {
	for i, q := range c.queue {
		if q.ID == id {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			return true
		}
	}
	return false
}

// killCore terminates a running or queued job and frees its resources.
// The caller reallocates afterwards.
func (c *cluster) killCore(now float64, id job.ID) bool {
	if i, ok := c.find(id); ok {
		j := c.running[i].j
		if t, ok := j.CompletionTime(now); ok && t <= now {
			// Completes at or before the kill instant: leave it running
			// for the next Advance to finish and report.
			return false
		}
		if err := j.Kill(now); err != nil {
			return false
		}
		c.finish(now, i, Stop)
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
