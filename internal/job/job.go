// Package job models parallel jobs, including the adaptive jobs of paper
// §4: "an adaptive job is a parallel program that can dynamically (i.e. at
// run-time) shrink or expand the number of processors it is running on, in
// response to an external command or an internal event. The number of
// processors can vary within the bounds specified when the job is
// started."
//
// The package tracks remaining work exactly under a changing processor
// allocation: progress accrues at the contract's speedup for the current
// allocation, and each reconfiguration costs a configurable latency during
// which no progress is made (standing in for the Charm++/AMPI load
// balancing migration cost measured in the paper's companion work [15]).
package job

import (
	"errors"
	"fmt"

	"faucets/internal/qos"
)

// State is a job's lifecycle state.
type State int

// Job lifecycle: Pending (submitted, not yet scheduled) → Running ⇄
// Checkpointed (preempted with state saved) → Finished; any pre-terminal
// state may transition to Rejected (scheduler declined) or Killed.
const (
	Pending State = iota
	Running
	Checkpointed
	Finished
	Rejected
	Killed
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case Pending:
		return "pending"
	case Running:
		return "running"
	case Checkpointed:
		return "checkpointed"
	case Finished:
		return "finished"
	case Rejected:
		return "rejected"
	case Killed:
		return "killed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == Finished || s == Rejected || s == Killed
}

// ID identifies a job across the Faucets system (the "job-ID" users give
// AppSpector, paper §2).
type ID string

// Job is one submitted parallel job and its execution bookkeeping.
type Job struct {
	ID       ID
	Owner    string // faucets userid of the submitter
	Contract *qos.Contract

	// SubmitTime is when the client submitted the job (virtual seconds);
	// deadlines in the contract are relative to it.
	SubmitTime float64
	// StartTime is when the job first began executing; -1 until then.
	StartTime float64
	// FinishTime is when the job reached a terminal state; -1 until then.
	FinishTime float64

	state State

	// doneWork is the sequential-equivalent work completed so far, in
	// CPU-seconds on the reference machine.
	doneWork float64
	// lastUpdate is the virtual time of the last progress accounting.
	lastUpdate float64
	// curPE is the current allocation size (0 when not running).
	curPE int
	// speed is the speed factor of the machine currently running the job.
	speed float64
	// cpuUsed accumulates processor-seconds actually consumed, for billing.
	cpuUsed float64
	// reconfigs counts shrink/expand operations applied.
	reconfigs int
	// checkpoints counts checkpoint operations.
	checkpoints int
}

// New creates a Pending job. The contract must already be validated.
func New(id ID, owner string, c *qos.Contract, submitTime float64) *Job {
	return &Job{
		ID:         id,
		Owner:      owner,
		Contract:   c,
		SubmitTime: submitTime,
		StartTime:  -1,
		FinishTime: -1,
		state:      Pending,
	}
}

// State returns the lifecycle state.
func (j *Job) State() State { return j.state }

// PEs returns the current processor allocation size (0 unless Running).
func (j *Job) PEs() int { return j.curPE }

// DoneWork returns completed sequential-equivalent work in CPU-seconds.
func (j *Job) DoneWork() float64 { return j.doneWork }

// RemainingWork returns sequential-equivalent work left, never negative.
func (j *Job) RemainingWork() float64 {
	r := j.Contract.Work - j.doneWork
	if r < 0 {
		return 0
	}
	return r
}

// CPUUsed returns processor-seconds consumed so far (the billing basis).
func (j *Job) CPUUsed() float64 { return j.cpuUsed }

// Reconfigs returns how many shrink/expand operations have been applied.
func (j *Job) Reconfigs() int { return j.reconfigs }

// Checkpoints returns how many times the job has been checkpointed.
func (j *Job) Checkpoints() int { return j.checkpoints }

// Errors returned by lifecycle operations.
var (
	ErrState  = errors.New("job: invalid state transition")
	ErrBounds = errors.New("job: allocation outside contract bounds")
)

// Start begins execution at time now on pe processors of a machine with
// the given speed factor. Valid from Pending or Checkpointed.
func (j *Job) Start(now float64, pe int, speed float64) error {
	if j.state != Pending && j.state != Checkpointed {
		return fmt.Errorf("%w: Start from %v", ErrState, j.state)
	}
	if pe < j.Contract.MinPE || pe > j.Contract.MaxPE {
		return fmt.Errorf("%w: %d not in [%d,%d]", ErrBounds, pe, j.Contract.MinPE, j.Contract.MaxPE)
	}
	if speed <= 0 {
		return fmt.Errorf("job: non-positive speed %v", speed)
	}
	if j.StartTime < 0 {
		j.StartTime = now
	}
	j.state = Running
	j.curPE = pe
	j.speed = speed
	j.lastUpdate = now
	return nil
}

// rate returns sequential-work progress per second at the current
// allocation given completed work done — phase-aware for multi-phase
// contracts (§2.1): the active phase's efficiency curve governs, and
// processors beyond the phase's MaxPE idle.
func (j *Job) rate(done float64) float64 {
	if _, ph, ok := j.Contract.PhaseAt(done); ok {
		return ph.Speedup(j.curPE) * j.speed
	}
	return j.Contract.Speedup(j.curPE) * j.speed
}

// progressTo accrues work done between lastUpdate and now, integrating
// across phase boundaries where the rate changes.
func (j *Job) progressTo(now float64) {
	if j.state != Running || now <= j.lastUpdate {
		return
	}
	dt := now - j.lastUpdate
	j.cpuUsed += dt * float64(j.curPE)
	if len(j.Contract.Phases) == 0 {
		j.doneWork += dt * j.rate(j.doneWork)
		j.lastUpdate = now
		return
	}
	for dt > 0 {
		r := j.rate(j.doneWork)
		if r <= 0 {
			break
		}
		phaseLeft := j.Contract.PhaseRemaining(j.doneWork)
		if phaseLeft <= 0 {
			// Past the final phase: nothing left to compute.
			break
		}
		phaseTime := phaseLeft / r
		if phaseTime > dt {
			j.doneWork += dt * r
			dt = 0
		} else {
			j.doneWork += phaseLeft
			dt -= phaseTime
		}
	}
	j.lastUpdate = now
}

// Reconfigure changes the allocation to pe processors at time now, adding
// reconfigLatency seconds during which the job makes no progress (but
// still occupies the new allocation). Valid only while Running.
func (j *Job) Reconfigure(now float64, pe int, reconfigLatency float64) error {
	if j.state != Running {
		return fmt.Errorf("%w: Reconfigure from %v", ErrState, j.state)
	}
	if pe < j.Contract.MinPE || pe > j.Contract.MaxPE {
		return fmt.Errorf("%w: %d not in [%d,%d]", ErrBounds, pe, j.Contract.MinPE, j.Contract.MaxPE)
	}
	j.progressTo(now)
	if pe == j.curPE {
		return nil // no-op, no latency charged
	}
	j.curPE = pe
	j.reconfigs++
	// The reconfiguration stall: progress resumes only after the latency.
	j.lastUpdate = now + reconfigLatency
	return nil
}

// Checkpoint suspends the job at time now, saving its progress. The
// paper: "Jobs may also have to be check-pointed and restarted at a later
// point in time and possibly at another (subcontracted) Compute Server
// with a different architecture" (§4.1).
func (j *Job) Checkpoint(now float64) error {
	if j.state != Running {
		return fmt.Errorf("%w: Checkpoint from %v", ErrState, j.state)
	}
	j.progressTo(now)
	j.state = Checkpointed
	j.curPE = 0
	j.checkpoints++
	return nil
}

// CompletionTime predicts when the job will finish if it keeps its
// current allocation from time now onward, integrating phase-by-phase
// rates for multi-phase contracts. ok is false when the job is not
// running.
func (j *Job) CompletionTime(now float64) (float64, bool) {
	if j.state != Running {
		return 0, false
	}
	// Progress is accounted from lastUpdate (which may be in the future
	// during a reconfiguration stall).
	base := j.lastUpdate
	if now > base {
		base = now
	}
	// Walk the remaining work phase by phase from the accounted state.
	done := j.doneWork
	// Replay any progress between lastUpdate and base (not yet booked).
	if base > j.lastUpdate {
		elapsed := base - j.lastUpdate
		for elapsed > 0 {
			r := j.rate(done)
			if r <= 0 {
				break
			}
			left := j.Contract.PhaseRemaining(done)
			if left <= 0 {
				left = j.Contract.Work - done
			}
			if left <= 0 {
				break
			}
			t := left / r
			if t > elapsed {
				done += elapsed * r
				elapsed = 0
			} else {
				done += left
				elapsed -= t
			}
		}
	}
	if done >= j.Contract.Work {
		return base, true
	}
	t := base
	for done < j.Contract.Work {
		r := j.rate(done)
		if r <= 0 {
			return 0, false
		}
		left := j.Contract.PhaseRemaining(done)
		if left <= 0 || left > j.Contract.Work-done {
			left = j.Contract.Work - done
		}
		t += left / r
		done += left
	}
	return t, true
}

// CurrentPhase returns the index and name of the phase the job is in
// (-1, "" for single-phase contracts).
func (j *Job) CurrentPhase() (int, string) {
	idx, ph, ok := j.Contract.PhaseAt(j.doneWork)
	if !ok {
		return -1, ""
	}
	return idx, ph.Name
}

// NextPhaseBoundary predicts when the running job will cross into its
// next phase under the current allocation, from its accounted state
// (lastUpdate and the work booked by then) — so the answer does not move
// with the caller's clock, and a caller that arrives after the boundary
// is told when it was. ok is false when the job is not running, has no
// phases, or is already in its final phase — schedulers use the boundary
// as a reallocation trigger (§2.1: "the scheduler may benefit from
// knowing the shift in performance parameters when the program shifts
// from one phase to another").
func (j *Job) NextPhaseBoundary() (float64, bool) {
	if j.state != Running {
		return 0, false
	}
	idx, _, ok := j.Contract.PhaseAt(j.doneWork)
	if !ok || idx >= len(j.Contract.Phases)-1 {
		return 0, false
	}
	r := j.rate(j.doneWork)
	if r <= 0 {
		return 0, false
	}
	return j.lastUpdate + j.Contract.PhaseRemaining(j.doneWork)/r, true
}

// EffectiveBounds returns the processor bounds the scheduler should
// honor right now: the current phase's range for multi-phase contracts
// (clamped within the contract's own range, which Start/Reconfigure
// validate against), else the contract range.
func (j *Job) EffectiveBounds() (minPE, maxPE int) {
	c := j.Contract
	minPE, maxPE = c.MinPE, c.MaxPE
	_, ph, ok := c.PhaseAt(j.doneWork)
	if !ok {
		return minPE, maxPE
	}
	clamp := func(v int) int {
		if v < c.MinPE {
			return c.MinPE
		}
		if v > c.MaxPE {
			return c.MaxPE
		}
		return v
	}
	minPE, maxPE = clamp(ph.MinPE), clamp(ph.MaxPE)
	if minPE > maxPE {
		minPE = maxPE
	}
	return minPE, maxPE
}

// AdvanceTo accounts progress up to time now and returns true if the job
// completed at or before now. On completion the job transitions to
// Finished and FinishTime is the exact completion instant.
func (j *Job) AdvanceTo(now float64) bool {
	if j.state != Running {
		return false
	}
	done, ok := j.CompletionTime(j.lastUpdate)
	if ok && done <= now {
		j.progressTo(done)
		j.state = Finished
		j.FinishTime = done
		j.curPE = 0
		return true
	}
	j.progressTo(now)
	return false
}

// Reject marks a Pending job as declined by every scheduler.
func (j *Job) Reject(now float64) error {
	if j.state != Pending {
		return fmt.Errorf("%w: Reject from %v", ErrState, j.state)
	}
	j.state = Rejected
	j.FinishTime = now
	return nil
}

// Kill terminates the job at time now from any non-terminal state.
func (j *Job) Kill(now float64) error {
	if j.state.Terminal() {
		return fmt.Errorf("%w: Kill from %v", ErrState, j.state)
	}
	j.progressTo(now)
	j.state = Killed
	j.FinishTime = now
	j.curPE = 0
	return nil
}

// ResponseTime returns FinishTime - SubmitTime for terminal jobs, else 0.
func (j *Job) ResponseTime() float64 {
	if !j.state.Terminal() || j.FinishTime < 0 {
		return 0
	}
	return j.FinishTime - j.SubmitTime
}

// Payout returns what the client pays for this job given its completion
// time: the contract's payoff function evaluated at the response time.
// For contracts without a payoff function it returns 0 (price comes from
// the accepted bid instead).
func (j *Job) Payout() float64 {
	if j.state != Finished {
		return 0
	}
	return j.Contract.Payoff.Value(j.ResponseTime())
}

// MetDeadline reports whether a finished job completed within its hard
// deadline (always true when the contract has no deadline).
func (j *Job) MetDeadline() bool {
	if j.state != Finished {
		return false
	}
	hd := j.Contract.HardDeadline()
	return hd == 0 || j.ResponseTime() <= hd
}

func (j *Job) String() string {
	return fmt.Sprintf("job %s [%s] %s pe=%d done=%.0f/%.0f",
		j.ID, j.state, j.Contract.App, j.curPE, j.doneWork, j.Contract.Work)
}
