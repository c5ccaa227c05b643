package scheduler

import (
	"cmp"
	"slices"

	"faucets/internal/gantt"
	"faucets/internal/job"
	"faucets/internal/machine"
	"faucets/internal/qos"
)

// Profit is the payoff-aware adaptive strategy of §4.1: "the utility
// metric can also be maximizing the payoff function from running a job
// before its deadline … running a new job may delay other jobs and lead
// to a loss in profit. So the payoff from the new job must at least
// compensate for the loss mentioned above or the job must be rejected.
// The strategy must find time windows for the job in its processor-time
// Gantt chart before the job's deadline. If enough time cannot be
// allocated for the job it must be rejected."
//
// Implementation: allocation is deadline-weighted equipartition — every
// running job is first given the processors it needs to meet its soft
// deadline (tightest slack first), then leftovers are water-filled.
// Admission simulates the allocation with and without the candidate and
// accepts only if the candidate's expected payoff at its predicted
// completion covers the payoff the incumbents lose by being slowed down,
// and the predicted completion lands within the hard deadline (or within
// Config.Lookahead for jobs that must wait to start).
type Profit struct {
	*cluster
	// preemptions counts checkpoint evictions (Config.Preempt).
	preemptions int
	// cands is candidates' storage, reused.
	cands []*job.Job
}

var _ Scheduler = (*Profit)(nil)

// NewProfit returns the payoff-maximizing adaptive scheduler.
func NewProfit(spec machine.Spec, cfg Config) *Profit {
	return &Profit{cluster: newCluster(spec, cfg)}
}

// Name implements Scheduler.
func (p *Profit) Name() string { return "profit" }

// predictedPayoff evaluates j's payoff if it completes at time t.
func predictedPayoff(j *job.Job, t float64) float64 {
	if j.Contract.Payoff.Zero() {
		// No payoff function: value accrues from the bid price instead;
		// treat running it as mildly positive so payoff-less jobs are
		// not starved, scaled by work so big jobs count more.
		return j.Contract.Work * 1e-6
	}
	return j.Contract.Payoff.Value(t - j.SubmitTime)
}

// planEntry is one job's predicted allocation and completion in a
// hypothetical plan.
type planEntry struct {
	j        *job.Job
	pe       int
	complete float64
}

// candidates lists what a plan covers: the running jobs in ID order, the
// queue FIFO and, when non-nil, one arrival. The slice is reused by the
// next call.
func (p *Profit) candidates(arrival *job.Job) []*job.Job {
	p.cands = p.cands[:0]
	for _, e := range p.running {
		p.cands = append(p.cands, e.j)
	}
	p.cands = append(p.cands, p.queue...)
	if arrival != nil {
		p.cands = append(p.cands, arrival)
	}
	return p.cands
}

// plan computes the deadline-weighted allocation for the given jobs —
// candidates, or a prefix of them, so the running set comes first — at
// time now and predicts each job's completion under it. Jobs that cannot
// be allocated their MinPE are given pe == 0 and complete == +inf proxy
// (completion from a queued start estimate).
func (p *Profit) plan(now float64, jobs []*job.Job) []planEntry {
	type need struct {
		idx   int
		slack float64
		min   int
		max   int
		want  int // processors needed to hit the soft deadline
	}
	needs := make([]need, len(jobs))
	for i, j := range jobs {
		c := j.Contract
		soft := c.Payoff.Soft
		hard := c.HardDeadline()
		deadline := soft
		if deadline == 0 {
			deadline = hard
		}
		want := c.MinPE
		slack := 1e18
		if deadline > 0 {
			slack = (j.SubmitTime + deadline) - now
			rem := j.RemainingWork()
			// Find the smallest pe within bounds whose predicted finish
			// meets the deadline.
			want = c.MaxPE + 1 // sentinel: not achievable
			for pe := c.MinPE; pe <= c.MaxPE; pe++ {
				t := rem / (c.Speedup(pe) * p.spec.Speed)
				if t <= slack {
					want = pe
					break
				}
			}
			if want > c.MaxPE {
				want = c.MaxPE // best effort
			}
		}
		needs[i] = need{idx: i, slack: slack, min: c.MinPE, max: c.MaxPE, want: want}
	}
	// Running jobs are committed and must keep at least their MinPE
	// before any waiting job gets processors; within each class the
	// tightest deadline slack goes first, FIFO (index order) on ties.
	// With preemption enabled, commitment no longer shields a running
	// job: priority is predicted payoff density (payoff per remaining
	// CPU-second), so a high-payoff arrival can push a low-value
	// incumbent to target 0 — a checkpoint (§4.1, §5.5.4).
	order := make([]int, len(needs))
	for i := range order {
		order[i] = i
	}
	isRunning := func(i int) bool { return i < len(p.running) }
	var density []float64
	if p.cfg.Preempt {
		density = make([]float64, len(jobs))
		for i, j := range jobs {
			best := j.RemainingWork() / (j.Contract.Speedup(j.Contract.MaxPE) * p.spec.Speed)
			rem := j.RemainingWork()
			if rem <= 0 {
				rem = 1
			}
			density[i] = predictedPayoff(j, now+best) / rem
		}
	}
	slices.SortStableFunc(order, func(a, b int) int {
		if p.cfg.Preempt {
			if density[a] != density[b] {
				return cmp.Compare(density[b], density[a])
			}
		} else if isRunning(a) != isRunning(b) {
			if isRunning(a) {
				return -1
			}
			return 1
		}
		return cmp.Compare(needs[a].slack, needs[b].slack)
	})

	total := p.spec.NumPE
	target := make([]int, len(jobs))
	// Pass 1: MinPE in commitment+slack order.
	for _, i := range order {
		if needs[i].min <= total {
			target[i] = needs[i].min
			total -= needs[i].min
		}
	}
	// Pass 2: grow to `want` in slack order.
	for _, i := range order {
		if target[i] == 0 {
			continue
		}
		grow := needs[i].want - target[i]
		if grow > total {
			grow = total
		}
		if grow > 0 {
			target[i] += grow
			total -= grow
		}
	}
	// Pass 3: water-fill any leftovers to MaxPE in slack order.
	for total > 0 {
		progressed := false
		for _, i := range order {
			if total == 0 {
				break
			}
			if target[i] > 0 && target[i] < needs[i].max {
				target[i]++
				total--
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	out := make([]planEntry, len(jobs))
	// First pass: completions for jobs the plan runs now.
	for i, j := range jobs {
		if target[i] > 0 {
			out[i] = planEntry{j: j, pe: target[i],
				complete: now + j.RemainingWork()/(j.Contract.Speedup(target[i])*p.spec.Speed)}
		}
	}
	// Second pass: queued jobs get a start slot from the processor-time
	// Gantt chart of the planned set ("the strategy must find time
	// windows for the job in its processor-time Gantt chart", §4.1).
	var chart *gantt.Chart
	for i, j := range jobs {
		if target[i] > 0 {
			continue
		}
		if chart == nil {
			chart = gantt.NewChart(p.spec.NumPE)
			for k := range jobs {
				if target[k] > 0 && out[k].complete > now {
					_, _ = chart.Reserve(now, out[k].complete, target[k])
				}
			}
		}
		min := j.Contract.MinPE
		dur := j.RemainingWork() / (j.Contract.Speedup(min) * p.spec.Speed)
		if start, ok := chart.FindWindow(now, dur, min, 0); ok {
			// Hold the slot so later queued jobs in this plan don't all
			// claim the same window.
			_, _ = chart.Reserve(start, start+dur, min)
			out[i] = planEntry{j: j, pe: 0, complete: start + dur}
		} else {
			out[i] = planEntry{j: j, pe: 0, complete: chart.Horizon(now) + dur}
		}
	}
	return out
}

// verdict is the one admission rule, for Submit and every bid: j fits,
// meets its hard deadline counted from its SubmitTime, starts now or
// within the lookahead, and pays what the incumbents lose (§4.1).
func (p *Profit) verdict(now float64, j *job.Job) (complete float64, ok bool) {
	if !p.feasible(j.Contract) {
		return 0, false
	}
	withNew := p.candidates(j)
	before := p.plan(now, withNew[:len(withNew)-1])
	after := p.plan(now, withNew)

	// The candidate's own predicted outcome.
	cand := after[len(after)-1]
	if hard := j.Contract.HardDeadline(); hard > 0 && cand.complete > j.SubmitTime+hard {
		return 0, false // cannot meet the deadline: reject (paper §4.1)
	}
	// A job that must wait to start is acceptable only within the lookahead.
	if cand.pe == 0 && (p.cfg.Lookahead <= 0 || cand.complete > now+p.cfg.Lookahead) {
		return 0, false
	}
	gain := predictedPayoff(j, cand.complete)
	// Payoff the incumbents lose because of the newcomer.
	var loss float64
	for i, b := range before {
		loss += predictedPayoff(b.j, b.complete) - predictedPayoff(after[i].j, after[i].complete)
	}
	if gain < loss {
		return 0, false
	}
	return cand.complete, true
}

// Submit implements Scheduler with profit-based admission control.
func (p *Profit) Submit(now float64, j *job.Job) bool {
	if _, ok := p.verdict(now, j); !ok {
		return false
	}
	p.queue = append(p.queue, j)
	p.reallocate(now)
	return true
}

// reallocate applies the deadline-weighted plan to the actual machine.
func (p *Profit) reallocate(now float64) {
	entries := p.plan(now, p.candidates(nil))
	nrun := len(p.running)
	for i := range p.running {
		p.running[i].target = entries[i].pe
	}
	// Preemption: a running job planned at zero processors is
	// checkpointed and re-queued ahead of the waiting jobs; it restarts
	// from the checkpoint when capacity frees (§4.1).
	var preempted []*job.Job
	if p.cfg.Preempt {
		for _, pe := range entries[:nrun] {
			if pe.pe != 0 || pe.j.Checkpoint(now) != nil {
				continue
			}
			i, _ := p.find(pe.j.ID)
			p.finish(i)
			p.preemptions++
			preempted = append(preempted, pe.j)
		}
	}
	p.apply(now, func(k int) int { return entries[nrun+k].pe })
	if len(preempted) > 0 {
		p.queue = append(preempted, p.queue...)
	}
}

// Advance implements Scheduler.
func (p *Profit) Advance(now float64) []*job.Job {
	return p.advanceCore(now, p.reallocate)
}

// EstimateCompletion implements Scheduler: the verdict Submit would give
// a job with contract c submitted now.
func (p *Profit) EstimateCompletion(now float64, c *qos.Contract) (float64, bool) {
	return p.verdict(now, job.New("estimate-probe", "", c, now))
}

// Preemptions returns how many running jobs have been checkpointed to
// make room for higher-payoff arrivals.
func (p *Profit) Preemptions() int { return p.preemptions }

// Kill implements Scheduler.
func (p *Profit) Kill(now float64, id job.ID) bool {
	if !p.killCore(now, id) {
		return false
	}
	p.reallocate(now)
	return true
}
