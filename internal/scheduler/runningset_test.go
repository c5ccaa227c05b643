package scheduler

import (
	"fmt"
	"sort"
	"testing"

	"faucets/internal/job"
	"faucets/internal/machine"
	"faucets/internal/qos"
	"faucets/internal/sim"
)

// op is one step of a random drive: submit (a fresh job per scheduler
// driven, so twins never share state), advance, kill or evict.
type op struct {
	kind byte // 's', 'a', 'k', 'e'
	now  float64
	id   job.ID
	c    *qos.Contract
}

// randomOps builds a seeded drive against a 32-PE machine: IDs whose
// order is unrelated to arrival order, rigid and adaptive contracts,
// some with deadlines, some with a wide-then-narrow pair of phases, and
// more demand than processors so the queue is used. Submit, kill and
// evict happen at whatever the clock reads, not only right after an
// Advance.
func randomOps(t *testing.T, seed uint64, n int) []op {
	rng := sim.NewRNG(seed)
	var ops []op
	var ids []job.ID
	now := 0.0
	for i := 0; i < n; i++ {
		now += rng.Range(0, 6)
		switch r := rng.Intn(10); {
		case r < 4:
			min := 1 + rng.Intn(8)
			c := &qos.Contract{App: "app", MinPE: min, MaxPE: min + rng.Intn(20), Work: rng.Range(50, 2000)}
			switch rng.Intn(4) {
			case 0:
				c.Payoff = qos.Payoff{Soft: rng.Range(50, 400), AtSoft: rng.Range(10, 100), AtHard: 1}
				c.Payoff.Hard = 2 * c.Payoff.Soft
			case 1:
				c.Phases = []qos.Phase{
					{Name: "wide", Work: c.Work * 0.75, MinPE: c.MinPE, MaxPE: c.MaxPE},
					{Name: "narrow", Work: c.Work * 0.25, MinPE: 1, MaxPE: c.MinPE},
				}
			}
			if err := c.Validate(); err != nil {
				t.Fatalf("seed %d: generated an invalid contract: %v", seed, err)
			}
			id := job.ID(fmt.Sprintf("%03d-%d", rng.Intn(500), i))
			ids = append(ids, id)
			ops = append(ops, op{kind: 's', now: now, id: id, c: c})
		case r < 8 || len(ids) == 0:
			ops = append(ops, op{kind: 'a', now: now})
		case r < 9:
			ops = append(ops, op{kind: 'k', now: now, id: ids[rng.Intn(len(ids))]})
		default:
			ops = append(ops, op{kind: 'e', now: now, id: ids[rng.Intn(len(ids))]})
		}
	}
	return ops
}

// TestRunningSetInvariantProperty drives every strategy through random
// Submit/Advance/Kill/Evict sequences and checks after each step that
// the one running set is what it claims to be: strictly ascending by
// ID, exactly the jobs in state Running, counted by RunningCount and
// holding exactly UsedPEs processors.
func TestRunningSetInvariantProperty(t *testing.T) {
	sp := spec(32)
	for name, build := range map[string]func() Scheduler{
		"fcfs":           func() Scheduler { return NewFCFS(sp, Config{}) },
		"backfill":       func() Scheduler { return NewBackfill(sp, Config{}) },
		"equipartition":  func() Scheduler { return NewEquipartition(sp, Config{ReconfigLatency: 0.5}) },
		"profit":         func() Scheduler { return NewProfit(sp, Config{Lookahead: 300}) },
		"profit-preempt": func() Scheduler { return NewProfit(sp, Config{Lookahead: 300, Preempt: true}) },
	} {
		t.Run(name, func(t *testing.T) {
			started := 0
			for seed := uint64(1); seed <= 30; seed++ {
				s := build()
				var all []*job.Job
				for step, o := range randomOps(t, seed, 300) {
					switch o.kind {
					case 's':
						j := job.New(o.id, "u", o.c, o.now)
						all = append(all, j)
						s.Submit(o.now, j)
					case 'a':
						s.Advance(o.now)
					case 'k':
						s.Kill(o.now, o.id)
					case 'e':
						s.Evict(o.now, o.id)
					}
					run := s.Running()
					pes := 0
					for i, j := range run {
						if i > 0 && run[i-1].ID >= j.ID {
							t.Fatalf("seed %d step %d (%c): Running not strictly ascending: %s then %s", seed, step, o.kind, run[i-1].ID, j.ID)
						}
						if j.State() != job.Running {
							t.Fatalf("seed %d step %d (%c): %s is in the running set in state %v", seed, step, o.kind, j.ID, j.State())
						}
						pes += j.PEs()
					}
					inState := 0
					for _, j := range all {
						if j.State() == job.Running {
							inState++
						}
					}
					if inState != len(run) || s.RunningCount() != len(run) {
						t.Fatalf("seed %d step %d (%c): %d jobs in state Running, Running lists %d, RunningCount %d",
							seed, step, o.kind, inState, len(run), s.RunningCount())
					}
					if s.UsedPEs() != pes {
						t.Fatalf("seed %d step %d (%c): UsedPEs %d, running jobs hold %d", seed, step, o.kind, s.UsedPEs(), pes)
					}
				}
				for _, j := range all {
					if j.StartTime >= 0 {
						started++
					}
				}
			}
			if started == 0 {
				t.Fatal("the drive never started a job")
			}
		})
	}
}

// refEquipartition is the equipartition scheduler as it stood before the
// running set became an ordered slice, kept as the naive reference: the
// set is a map, every reader sorts a fresh copy of it, and every
// estimate allocates its working set.
type refEquipartition struct {
	spec    machine.Spec
	alloc   *machine.Allocator
	latency float64
	running map[job.ID]*machine.Alloc
	jobs    map[job.ID]*job.Job
	queue   []*job.Job
}

func newRefEquipartition(spec machine.Spec, cfg Config) *refEquipartition {
	return &refEquipartition{spec: spec, alloc: machine.NewAllocator(spec.NumPE), latency: cfg.ReconfigLatency,
		running: map[job.ID]*machine.Alloc{}, jobs: map[job.ID]*job.Job{}}
}

func (r *refEquipartition) sorted() []*job.Job {
	out := make([]*job.Job, 0, len(r.running))
	for id := range r.running {
		out = append(out, r.jobs[id])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func refShares(total int, bs []bounds) []int {
	target, active := make([]int, len(bs)), make([]bool, len(bs))
	remaining := total
	for i, b := range bs {
		if b.min <= remaining {
			target[i], active[i] = b.min, true
			remaining -= b.min
		}
	}
	for remaining > 0 {
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
			target[i] += grant
			remaining -= grant
		}
	}
	return target
}

func (r *refEquipartition) start(now float64, j *job.Job, pe int) bool {
	a, err := r.alloc.Alloc(pe)
	if err != nil {
		return false
	}
	if j.Start(now, pe, r.spec.Speed) != nil {
		r.alloc.Release(a)
		return false
	}
	r.running[j.ID], r.jobs[j.ID] = a, j
	return true
}

func (r *refEquipartition) reallocate(now float64) {
	cands := append(r.sorted(), r.queue...)
	bs := make([]bounds, len(cands))
	for i, j := range cands {
		bs[i] = jobBounds(j)
	}
	target := refShares(r.spec.NumPE, bs)
	for i, j := range cands {
		a, isRunning := r.running[j.ID]
		if !isRunning || target[i] == 0 || target[i] >= a.Size() {
			continue
		}
		if err := r.alloc.Shrink(a, target[i]); err == nil {
			_ = j.Reconfigure(now, target[i], r.latency)
		}
	}
	var stillQueued []*job.Job
	for i, j := range cands {
		if _, isRunning := r.running[j.ID]; isRunning {
			continue
		}
		if target[i] == 0 || !r.start(now, j, target[i]) {
			stillQueued = append(stillQueued, j)
		}
	}
	r.queue = stillQueued
	for i, j := range cands {
		a, isRunning := r.running[j.ID]
		if !isRunning || target[i] <= a.Size() {
			continue
		}
		if err := r.alloc.Expand(a, target[i]); err == nil {
			_ = j.Reconfigure(now, target[i], r.latency)
		}
	}
}

func (r *refEquipartition) Submit(now float64, j *job.Job) bool {
	if j.Contract.MinPE > r.spec.NumPE || !j.Contract.FitsMemory(j.Contract.MinPE, r.spec.MemPerPE) {
		return false
	}
	r.queue = append(r.queue, j)
	r.reallocate(now)
	return true
}

func (r *refEquipartition) nextEvent(now float64) (t float64, boundary, ok bool) {
	var tb float64
	okb := false
	for id := range r.running {
		if c, cok := r.jobs[id].CompletionTime(now); cok && (!ok || c < t) {
			t, ok = c, true
		}
		if b, bok := r.jobs[id].NextPhaseBoundary(); bok && (!okb || b < tb) {
			tb, okb = b, true
		}
	}
	if okb && (!ok || tb < t) {
		return tb, true, true
	}
	return t, false, ok
}

func (r *refEquipartition) NextCompletion(now float64) (float64, bool) {
	t, _, ok := r.nextEvent(now)
	return t, ok
}

// collect advances every running job to target and finishes, in ID
// order, those that complete by then.
func (r *refEquipartition) collect(target float64) []*job.Job {
	var finished []*job.Job
	for id := range r.running {
		if r.jobs[id].AdvanceTo(target) {
			finished = append(finished, r.jobs[id])
		}
	}
	sort.Slice(finished, func(i, j int) bool { return finished[i].ID < finished[j].ID })
	for _, j := range finished {
		r.alloc.Release(r.running[j.ID])
		delete(r.running, j.ID)
	}
	return finished
}

func (r *refEquipartition) Advance(now float64) []*job.Job {
	var done []*job.Job
	for {
		t, boundary, ok := r.nextEvent(now)
		if !ok || t > now {
			break
		}
		target := t
		if boundary {
			target += 1e-9
		}
		done = append(done, r.collect(target)...)
		r.reallocate(t)
	}
	if late := r.collect(now); len(late) > 0 {
		done = append(done, late...)
		r.reallocate(now)
	}
	return done
}

func (r *refEquipartition) Kill(now float64, id job.ID) bool {
	if a, ok := r.running[id]; ok {
		j := r.jobs[id]
		if t, ok := j.CompletionTime(now); ok && t <= now {
			return false
		}
		if j.Kill(now) != nil {
			return false
		}
		r.alloc.Release(a)
		delete(r.running, id)
		r.reallocate(now)
		return true
	}
	for i, q := range r.queue {
		if q.ID == id {
			r.queue = append(r.queue[:i], r.queue[i+1:]...)
			_ = q.Kill(now)
			r.reallocate(now)
			return true
		}
	}
	return false
}

func (r *refEquipartition) Evict(id job.ID) *job.Job {
	for i, q := range r.queue {
		if q.ID == id {
			r.queue = append(r.queue[:i], r.queue[i+1:]...)
			return q
		}
	}
	return nil
}

func (r *refEquipartition) EstimateCompletion(now float64, c *qos.Contract) (float64, bool) {
	if c.MinPE > r.spec.NumPE || !c.FitsMemory(c.MinPE, r.spec.MemPerPE) {
		return 0, false
	}
	var bs []bounds
	for _, j := range append(r.sorted(), r.queue...) {
		bs = append(bs, jobBounds(j))
	}
	target := refShares(r.spec.NumPE, append(bs, bounds{min: c.MinPE, max: c.MaxPE}))
	if pe := target[len(target)-1]; pe > 0 {
		return now + c.ExecTime(pe, r.spec.Speed), true
	}
	t, ok := float64(0), false
	for id := range r.running {
		if ct, cok := r.jobs[id].CompletionTime(now); cok && (!ok || ct < t) {
			t, ok = ct, true
		}
	}
	if !ok {
		return 0, false
	}
	return t + c.ExecTime(c.MinPE, r.spec.Speed), true
}

// TestEquipartitionMatchesNaiveReference drives the scheduler and the
// sort-a-map reference with twin jobs and requires, bit for bit, the
// same admissions, the same finished jobs in the same order at the same
// instants, the same next event, the same estimates for three probe
// contracts and the same allocation of every running job.
func TestEquipartitionMatchesNaiveReference(t *testing.T) {
	probes := []*qos.Contract{
		{App: "p", MinPE: 1, MaxPE: 4, Work: 100},
		{App: "p", MinPE: 8, MaxPE: 32, Work: 5000},
		{App: "p", MinPE: 30, MaxPE: 32, Work: 900},
	}
	cfg := Config{ReconfigLatency: 0.5}
	finished := 0
	for seed := uint64(1); seed <= 40; seed++ {
		got, want := NewEquipartition(spec(32), cfg), newRefEquipartition(spec(32), cfg)
		for step, o := range randomOps(t, seed, 300) {
			at := fmt.Sprintf("seed %d step %d (%c)", seed, step, o.kind)
			switch o.kind {
			case 's':
				if g, w := got.Submit(o.now, job.New(o.id, "u", o.c, o.now)), want.Submit(o.now, job.New(o.id, "u", o.c, o.now)); g != w {
					t.Fatalf("%s: Submit %v, reference %v", at, g, w)
				}
			case 'a':
				g, w := got.Advance(o.now), want.Advance(o.now)
				if len(g) != len(w) {
					t.Fatalf("%s: Advance finished %d jobs, reference %d", at, len(g), len(w))
				}
				for i := range g {
					if g[i].ID != w[i].ID || g[i].FinishTime != w[i].FinishTime {
						t.Fatalf("%s: Advance[%d] = %s at %v, reference %s at %v", at, i, g[i].ID, g[i].FinishTime, w[i].ID, w[i].FinishTime)
					}
				}
				finished += len(g)
			case 'k':
				if g, w := got.Kill(o.now, o.id), want.Kill(o.now, o.id); g != w {
					t.Fatalf("%s: Kill %v, reference %v", at, g, w)
				}
			case 'e':
				if g, w := got.Evict(o.now, o.id), want.Evict(o.id); (g == nil) != (w == nil) {
					t.Fatalf("%s: Evict %v, reference %v", at, g, w)
				}
			}
			gt, gok := got.NextCompletion(o.now)
			wt, wok := want.NextCompletion(o.now)
			if gt != wt || gok != wok {
				t.Fatalf("%s: NextCompletion %v %v, reference %v %v", at, gt, gok, wt, wok)
			}
			for i, c := range probes {
				ge, gok := got.EstimateCompletion(o.now, c)
				we, wok := want.EstimateCompletion(o.now, c)
				if ge != we || gok != wok {
					t.Fatalf("%s: EstimateCompletion(probe %d) %v %v, reference %v %v", at, i, ge, gok, we, wok)
				}
			}
			run, ref := got.Running(), want.sorted()
			if len(run) != len(ref) || got.QueueLen() != len(want.queue) {
				t.Fatalf("%s: %d running %d queued, reference %d and %d", at, len(run), got.QueueLen(), len(ref), len(want.queue))
			}
			for i := range run {
				if run[i].ID != ref[i].ID || run[i].PEs() != ref[i].PEs() || run[i].DoneWork() != ref[i].DoneWork() {
					t.Fatalf("%s: running[%d] = %v, reference %v", at, i, run[i], ref[i])
				}
			}
		}
	}
	if finished == 0 {
		t.Fatal("the drive never finished a job")
	}
}
