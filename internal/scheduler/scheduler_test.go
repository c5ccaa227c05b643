package scheduler

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"faucets/internal/job"
	"faucets/internal/machine"
	"faucets/internal/qos"
	"faucets/internal/sim"
)

func spec(numPE int) machine.Spec {
	return machine.Spec{Name: "test", NumPE: numPE, MemPerPE: 1024, CPUType: "x86", Speed: 1.0, CostRate: 0.01}
}

func mk(id string, minPE, maxPE int, work float64) *job.Job {
	c := &qos.Contract{App: "app", MinPE: minPE, MaxPE: maxPE, Work: work}
	return job.New(job.ID(id), "u", c, 0)
}

// drain advances the scheduler until all work completes, returning the
// finish times by job ID.
func drain(s Scheduler, until float64) map[job.ID]float64 {
	out := map[job.ID]float64{}
	var log []Event
	s.Record(&log)
	now := 0.0
	for {
		t, ok := s.NextCompletion(now)
		if !ok || t > until {
			break
		}
		now = t
		s.Advance(now)
	}
	for _, j := range finishes(log) {
		out[j.ID] = j.FinishTime
	}
	return out
}

// finishes returns the jobs log records finishing, in order.
func finishes(log []Event) []*job.Job {
	var out []*job.Job
	for _, e := range log {
		if e.Kind == Finish {
			out = append(out, e.Job)
		}
	}
	return out
}

func TestFCFSRunsJobsInOrder(t *testing.T) {
	s := NewFCFS(spec(10), Config{})
	a := mk("a", 10, 10, 100) // 10s on 10 PEs
	b := mk("b", 10, 10, 200) // 20s on 10 PEs
	if !s.Submit(0, a) || !s.Submit(0, b) {
		t.Fatal("feasible jobs rejected")
	}
	if s.RunningCount() != 1 || s.QueueLen() != 1 {
		t.Fatalf("running=%d queued=%d", s.RunningCount(), s.QueueLen())
	}
	fin := drain(s, 1e6)
	if fin["a"] != 10 {
		t.Fatalf("a finished at %v, want 10", fin["a"])
	}
	if fin["b"] != 30 {
		t.Fatalf("b finished at %v, want 30 (starts after a)", fin["b"])
	}
}

func TestFCFSRejectsInfeasible(t *testing.T) {
	s := NewFCFS(spec(8), Config{})
	if s.Submit(0, mk("big", 16, 32, 10)) {
		t.Fatal("job larger than the machine accepted")
	}
	c := &qos.Contract{App: "x", MinPE: 1, MaxPE: 1, Work: 1, MemPerPE: 1 << 20}
	if s.Submit(0, job.New("mem", "u", c, 0)) {
		t.Fatal("job exceeding memory accepted")
	}
}

// The paper's §1 internal-fragmentation scenario: a 1000-PE machine runs
// long job B on 500 PEs; urgent job A needs 600. Under rigid FCFS, A
// waits for B. Under the adaptive scheduler, B shrinks to 400 and A runs
// immediately.
func TestInternalFragmentationScenario(t *testing.T) {
	jobB := func() *job.Job {
		c := &qos.Contract{App: "b", MinPE: 400, MaxPE: 500, Work: 500 * 3600}
		return job.New("B", "u", c, 0)
	}
	jobA := func() *job.Job {
		c := &qos.Contract{App: "a", MinPE: 600, MaxPE: 600, Work: 600 * 60}
		return job.New("A", "u", c, 0)
	}

	// Rigid FCFS: A cannot start until B finishes at t=3600.
	rigid := NewFCFS(spec(1000), Config{})
	if !rigid.Submit(0, jobB()) {
		t.Fatal("B rejected by FCFS")
	}
	rigid.Advance(100)
	a1 := jobA()
	if !rigid.Submit(100, a1) {
		t.Fatal("A rejected by FCFS")
	}
	if a1.State() == job.Running {
		t.Fatal("rigid scheduler should not start A while B holds 500 PEs")
	}
	if rigid.UsedPEs() != 500 {
		t.Fatalf("rigid used=%d, want 500 (internal fragmentation)", rigid.UsedPEs())
	}

	// Adaptive: B shrinks to 400, A starts at once, machine is full.
	adaptive := NewEquipartition(spec(1000), Config{})
	b2 := jobB()
	if !adaptive.Submit(0, b2) {
		t.Fatal("B rejected by adaptive")
	}
	adaptive.Advance(100)
	a2 := jobA()
	if !adaptive.Submit(100, a2) {
		t.Fatal("A rejected by adaptive")
	}
	if a2.State() != job.Running {
		t.Fatalf("adaptive scheduler did not start A: %v", a2)
	}
	if a2.PEs() != 600 {
		t.Fatalf("A got %d PEs, want 600", a2.PEs())
	}
	if b2.PEs() != 400 {
		t.Fatalf("B shrunk to %d PEs, want 400", b2.PEs())
	}
	if adaptive.UsedPEs() != 1000 {
		t.Fatalf("adaptive used=%d, want 1000 (fully utilized)", adaptive.UsedPEs())
	}
}

func TestBackfillFillsHoles(t *testing.T) {
	// 10 PEs. Job a takes 8 PEs for 100s. Job big needs 10 PEs (blocked
	// until a finishes). Job small needs 2 PEs for 50s — backfill should
	// run it immediately since it finishes before big could start.
	s := NewBackfill(spec(10), Config{})
	a := mk("a", 8, 8, 800)
	big := mk("big", 10, 10, 100)
	small := mk("small", 2, 2, 100)
	s.Submit(0, a)
	s.Submit(0, big)
	s.Submit(0, small)
	if small.State() != job.Running {
		t.Fatal("backfill did not start the small job")
	}
	if big.State() == job.Running {
		t.Fatal("blocked head started prematurely")
	}

	// Plain FCFS keeps small stuck behind big.
	f := NewFCFS(spec(10), Config{})
	a2, big2, small2 := mk("a", 8, 8, 800), mk("big", 10, 10, 100), mk("small", 2, 2, 100)
	f.Submit(0, a2)
	f.Submit(0, big2)
	f.Submit(0, small2)
	if small2.State() == job.Running {
		t.Fatal("plain FCFS must not backfill")
	}
}

func TestBackfillDoesNotDelayHead(t *testing.T) {
	// Backfilled job would finish after the head's reservation → must not
	// start.
	s := NewBackfill(spec(10), Config{})
	a := mk("a", 8, 8, 800)       // finishes at 100
	big := mk("big", 10, 10, 100) // reserved at 100
	long := mk("long", 2, 2, 400) // would run 200s > 100 → no backfill
	s.Submit(0, a)
	s.Submit(0, big)
	s.Submit(0, long)
	if long.State() == job.Running {
		t.Fatal("backfill delayed the reserved head")
	}
}

func TestEquipartitionSharesEvenly(t *testing.T) {
	s := NewEquipartition(spec(16), Config{})
	a := mk("a", 1, 16, 1600)
	b := mk("b", 1, 16, 1600)
	s.Submit(0, a)
	if a.PEs() != 16 {
		t.Fatalf("single job should get the whole machine, got %d", a.PEs())
	}
	s.Submit(0, b)
	if a.PEs() != 8 || b.PEs() != 8 {
		t.Fatalf("two jobs: a=%d b=%d, want 8/8", a.PEs(), b.PEs())
	}
	c := mk("c", 1, 16, 1600)
	s.Submit(0, c)
	tot := a.PEs() + b.PEs() + c.PEs()
	if tot != 16 {
		t.Fatalf("total allocated %d, want 16", tot)
	}
	for _, j := range []*job.Job{a, b, c} {
		if j.PEs() < 5 || j.PEs() > 6 {
			t.Fatalf("uneven share: %v", j)
		}
	}
}

func TestEquipartitionRespectsBounds(t *testing.T) {
	s := NewEquipartition(spec(16), Config{})
	narrow := mk("narrow", 2, 4, 100)
	wide := mk("wide", 1, 16, 100)
	s.Submit(0, narrow)
	s.Submit(0, wide)
	if narrow.PEs() > 4 || narrow.PEs() < 2 {
		t.Fatalf("narrow out of bounds: %d", narrow.PEs())
	}
	if wide.PEs() != 12 {
		t.Fatalf("wide should absorb the slack: got %d, want 12", wide.PEs())
	}
}

func TestEquipartitionExpandOnCompletion(t *testing.T) {
	s := NewEquipartition(spec(16), Config{})
	a := mk("a", 1, 16, 160) // with 8 PEs: 20s
	b := mk("b", 1, 16, 1e6)
	s.Submit(0, a)
	s.Submit(0, b)
	if a.PEs() != 8 || b.PEs() != 8 {
		t.Fatalf("initial shares a=%d b=%d", a.PEs(), b.PEs())
	}
	fin := drain(s, 100)
	if _, ok := fin["a"]; !ok {
		t.Fatal("a did not finish")
	}
	if b.PEs() != 16 {
		t.Fatalf("b should expand to the whole machine after a finishes, got %d", b.PEs())
	}
}

func TestEquipartitionQueuesWhenMinPEsDontFit(t *testing.T) {
	s := NewEquipartition(spec(8), Config{})
	a := mk("a", 8, 8, 80) // rigid, takes whole machine for 10s
	bJob := mk("b", 8, 8, 80)
	s.Submit(0, a)
	s.Submit(0, bJob)
	if bJob.State() == job.Running {
		t.Fatal("b cannot fit its MinPE while a runs")
	}
	if s.QueueLen() != 1 {
		t.Fatalf("queue=%d", s.QueueLen())
	}
	fin := drain(s, 100)
	if fin["a"] != 10 || fin["b"] != 20 {
		t.Fatalf("finish times %v", fin)
	}
}

func TestEquipartitionUtilizationBeatsFCFS(t *testing.T) {
	// A stream of malleable jobs: the adaptive scheduler should finish
	// the batch no later than rigid FCFS (it can always mimic it), and
	// strictly earlier here.
	mkBatch := func() []*job.Job {
		var js []*job.Job
		for i := 0; i < 6; i++ {
			js = append(js, mk(fmt.Sprintf("j%d", i), 2, 16, 320))
		}
		return js
	}
	run := func(s Scheduler) float64 {
		for _, j := range mkBatch() {
			s.Submit(0, j)
		}
		fin := drain(s, 1e9)
		var last float64
		for _, t := range fin {
			if t > last {
				last = t
			}
		}
		return last
	}
	rigidEnd := run(NewFCFS(spec(16), Config{}))
	adaptEnd := run(NewEquipartition(spec(16), Config{}))
	if adaptEnd > rigidEnd {
		t.Fatalf("adaptive makespan %v worse than rigid %v", adaptEnd, rigidEnd)
	}
}

func TestSharesWaterfill(t *testing.T) {
	bs := []bounds{
		{min: 1, max: 4},
		{min: 1, max: 100},
		{min: 1, max: 100},
	}
	got := shares(20, bs, nil)
	if got[0] != 4 {
		t.Fatalf("clamped job got %d, want 4", got[0])
	}
	if got[1]+got[2] != 16 {
		t.Fatalf("leftover not distributed: %v", got)
	}
	if diff := got[1] - got[2]; diff < -1 || diff > 1 {
		t.Fatalf("uneven split: %v", got)
	}
}

func TestSharesZeroWhenMinDoesNotFit(t *testing.T) {
	bs := []bounds{{min: 6, max: 8}, {min: 6, max: 8}}
	got := shares(8, bs, nil)
	if got[0] == 0 || got[1] != 0 {
		t.Fatalf("want first served, second starved: %v", got)
	}
}

// Property: shares never exceed capacity, never violate bounds, and are
// work-conserving (if any job is below its max, no processors are left
// over unless everyone is clamped).
func TestSharesInvariantProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		total := 1 + rng.Intn(256)
		n := 1 + rng.Intn(10)
		bs := make([]bounds, n)
		for i := range bs {
			min := 1 + rng.Intn(16)
			bs[i] = bounds{min: min, max: min + rng.Intn(32)}
		}
		got := shares(total, bs, nil)
		sum := 0
		for i, g := range got {
			if g != 0 && (g < bs[i].min || g > bs[i].max) {
				return false
			}
			sum += g
		}
		if sum > total {
			return false
		}
		// Work conservation: leftovers only if every allocated job is at
		// its max and every unallocated job's min doesn't fit.
		leftover := total - sum
		if leftover > 0 {
			for i, g := range got {
				if g > 0 && g < bs[i].max {
					return false
				}
				if g == 0 && bs[i].min <= leftover {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestProfitAcceptsProfitableJob(t *testing.T) {
	s := NewProfit(spec(100), Config{})
	c := &qos.Contract{
		App: "x", MinPE: 10, MaxPE: 50, Work: 1000,
		Payoff: qos.Payoff{Soft: 100, Hard: 200, AtSoft: 500, AtHard: 100, Penalty: 100},
	}
	j := job.New("p1", "u", c, 0)
	if !s.Submit(0, j) {
		t.Fatal("profitable job rejected on an idle machine")
	}
	if j.State() != job.Running {
		t.Fatalf("state=%v", j.State())
	}
}

func TestProfitRejectsImpossibleDeadline(t *testing.T) {
	s := NewProfit(spec(10), Config{})
	// 10000 work on ≤10 PEs → ≥1000s, but hard deadline 100s.
	c := &qos.Contract{
		App: "x", MinPE: 1, MaxPE: 10, Work: 10000,
		Payoff: qos.Payoff{Soft: 50, Hard: 100, AtSoft: 1e6, AtHard: 1, Penalty: 0},
	}
	if s.Submit(0, job.New("late", "u", c, 0)) {
		t.Fatal("job with impossible deadline accepted")
	}
}

func TestProfitRejectsWhenLossExceedsGain(t *testing.T) {
	s := NewProfit(spec(10), Config{})
	// Incumbent: high-payoff job using the whole machine, tight deadline.
	inc := &qos.Contract{
		App: "inc", MinPE: 5, MaxPE: 10, Work: 900,
		Payoff: qos.Payoff{Soft: 100, Hard: 110, AtSoft: 10000, AtHard: 0, Penalty: 5000},
	}
	if !s.Submit(0, job.New("inc", "u", inc, 0)) {
		t.Fatal("incumbent rejected")
	}
	// Newcomer: tiny payoff but would force the incumbent to shrink and
	// miss its deadline.
	newc := &qos.Contract{
		App: "newc", MinPE: 5, MaxPE: 5, Work: 500,
		Payoff: qos.Payoff{Soft: 200, Hard: 400, AtSoft: 1, AtHard: 0, Penalty: 0},
	}
	if s.Submit(0, job.New("newc", "u", newc, 0)) {
		t.Fatal("job accepted although it destroys more payoff than it brings")
	}
}

func TestProfitAcceptsWhenGainCoversLoss(t *testing.T) {
	s := NewProfit(spec(10), Config{})
	inc := &qos.Contract{
		App: "inc", MinPE: 5, MaxPE: 10, Work: 900,
		Payoff: qos.Payoff{Soft: 100, Hard: 1000, AtSoft: 100, AtHard: 90, Penalty: 0},
	}
	if !s.Submit(0, job.New("inc", "u", inc, 0)) {
		t.Fatal("incumbent rejected")
	}
	rich := &qos.Contract{
		App: "rich", MinPE: 5, MaxPE: 5, Work: 500,
		Payoff: qos.Payoff{Soft: 150, Hard: 300, AtSoft: 100000, AtHard: 50000, Penalty: 0},
	}
	j := job.New("rich", "u", rich, 0)
	if !s.Submit(0, j) {
		t.Fatal("high-payoff job rejected although gain covers the small loss")
	}
	if j.State() != job.Running {
		t.Fatalf("state=%v", j.State())
	}
}

func TestProfitLookaheadQueueing(t *testing.T) {
	// Machine fully busy with a rigid incumbent; newcomer must wait.
	// Without lookahead it is rejected; with lookahead it queues.
	mkInc := func() *job.Job {
		c := &qos.Contract{App: "inc", MinPE: 10, MaxPE: 10, Work: 1000} // 100s
		return job.New("inc", "u", c, 0)
	}
	mkNew := func() *job.Job {
		c := &qos.Contract{
			App: "w", MinPE: 10, MaxPE: 10, Work: 100,
			Payoff: qos.Payoff{Soft: 500, Hard: 1000, AtSoft: 50, AtHard: 10, Penalty: 0},
		}
		return job.New("w", "u", c, 0)
	}
	noLook := NewProfit(spec(10), Config{})
	noLook.Submit(0, mkInc())
	if noLook.Submit(0, mkNew()) {
		t.Fatal("job needing to wait accepted with zero lookahead")
	}
	look := NewProfit(spec(10), Config{Lookahead: 500})
	look.Submit(0, mkInc())
	w := mkNew()
	if !look.Submit(0, w) {
		t.Fatal("job within lookahead rejected")
	}
	if w.State() == job.Running {
		t.Fatal("waiting job started on a full machine")
	}
	fin := drain(look, 1e9)
	if fin["w"] == 0 {
		t.Fatal("queued job never ran")
	}
}

func TestEstimateCompletionAllSchedulers(t *testing.T) {
	c := &qos.Contract{App: "e", MinPE: 2, MaxPE: 8, Work: 80}
	for _, s := range []Scheduler{
		NewFCFS(spec(8), Config{}),
		NewBackfill(spec(8), Config{}),
		NewEquipartition(spec(8), Config{}),
		NewProfit(spec(8), Config{Lookahead: 1e6}),
	} {
		est, ok := s.EstimateCompletion(0, c)
		if !ok {
			t.Fatalf("%s: estimate failed on idle machine", s.Name())
		}
		// Idle machine: 80 work on 8 PEs = 10s.
		if math.Abs(est-10) > 1e-6 {
			t.Fatalf("%s: estimate=%v, want 10", s.Name(), est)
		}
		// Infeasible contract.
		big := &qos.Contract{App: "b", MinPE: 100, MaxPE: 100, Work: 1}
		if _, ok := s.EstimateCompletion(0, big); ok {
			t.Fatalf("%s: estimated an infeasible job", s.Name())
		}
	}
}

func TestEstimateReflectsLoad(t *testing.T) {
	s := NewEquipartition(spec(8), Config{})
	idle, _ := s.EstimateCompletion(0, &qos.Contract{App: "e", MinPE: 1, MaxPE: 8, Work: 80})
	s.Submit(0, mk("busy", 1, 8, 1e6))
	loaded, ok := s.EstimateCompletion(0, &qos.Contract{App: "e", MinPE: 1, MaxPE: 8, Work: 80})
	if !ok {
		t.Fatal("estimate failed under load")
	}
	if loaded <= idle {
		t.Fatalf("estimate under load (%v) should exceed idle estimate (%v)", loaded, idle)
	}
}

func TestReconfigLatencyDelaysCompletion(t *testing.T) {
	fast := NewEquipartition(spec(16), Config{ReconfigLatency: 0})
	slow := NewEquipartition(spec(16), Config{ReconfigLatency: 30})
	for _, s := range []*Equipartition{fast, slow} {
		s.Submit(0, mk("a", 1, 16, 1600))
		s.Submit(0, mk("b", 1, 16, 1600))
	}
	finFast := drain(fast, 1e9)
	finSlow := drain(slow, 1e9)
	if finSlow["a"] <= finFast["a"] {
		t.Fatalf("reconfig latency should delay completion: %v vs %v", finSlow["a"], finFast["a"])
	}
}

// Property: no scheduler ever allocates more processors than the machine
// has, and every running job stays within its contract bounds, across a
// random arrival/completion schedule.
func TestSchedulerCapacityProperty(t *testing.T) {
	mkSched := []func() Scheduler{
		func() Scheduler { return NewFCFS(spec(32), Config{}) },
		func() Scheduler { return NewBackfill(spec(32), Config{}) },
		func() Scheduler { return NewEquipartition(spec(32), Config{}) },
		func() Scheduler { return NewProfit(spec(32), Config{Lookahead: 1e6}) },
	}
	f := func(seed uint64, which uint8) bool {
		rng := sim.NewRNG(seed)
		s := mkSched[int(which)%len(mkSched)]()
		now := 0.0
		for i := 0; i < 40; i++ {
			now += rng.Range(0, 20)
			s.Advance(now)
			min := 1 + rng.Intn(8)
			c := &qos.Contract{
				App: "p", MinPE: min, MaxPE: min + rng.Intn(24),
				Work: rng.Range(10, 2000),
			}
			j := job.New(job.ID(fmt.Sprintf("j%d", i)), "u", c, now)
			s.Submit(now, j)
			if s.UsedPEs() > 32 {
				return false
			}
			for _, r := range s.Running(nil) {
				if r.PEs() < r.Contract.MinPE || r.PEs() > r.Contract.MaxPE {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestKillRunningJobFreesProcessors(t *testing.T) {
	for _, s := range []Scheduler{
		NewFCFS(spec(16), Config{}),
		NewBackfill(spec(16), Config{}),
		NewEquipartition(spec(16), Config{}),
		NewProfit(spec(16), Config{Lookahead: 1e9}),
	} {
		long := mk("long", 8, 16, 1e6)
		if !s.Submit(0, long) {
			t.Fatalf("%s: submit failed", s.Name())
		}
		if long.State() != job.Running {
			t.Fatalf("%s: not running", s.Name())
		}
		if !s.Kill(10, "long") {
			t.Fatalf("%s: kill failed", s.Name())
		}
		if long.State() != job.Killed {
			t.Fatalf("%s: state=%v", s.Name(), long.State())
		}
		if s.UsedPEs() != 0 {
			t.Fatalf("%s: %d PEs leaked after kill", s.Name(), s.UsedPEs())
		}
		// Unknown / double kill is a no-op returning false.
		if s.Kill(11, "long") || s.Kill(11, "ghost") {
			t.Fatalf("%s: kill of dead/unknown job reported success", s.Name())
		}
	}
}

func TestKillQueuedJob(t *testing.T) {
	s := NewFCFS(spec(8), Config{})
	s.Submit(0, mk("a", 8, 8, 1e6))
	queued := mk("b", 8, 8, 100)
	s.Submit(0, queued)
	if s.QueueLen() != 1 {
		t.Fatalf("queue=%d", s.QueueLen())
	}
	if !s.Kill(5, "b") {
		t.Fatal("kill of queued job failed")
	}
	if queued.State() != job.Killed || s.QueueLen() != 0 {
		t.Fatalf("state=%v queue=%d", queued.State(), s.QueueLen())
	}
}

func TestKillPromotesQueuedWork(t *testing.T) {
	s := NewFCFS(spec(8), Config{})
	hog := mk("hog", 8, 8, 1e6)
	next := mk("next", 8, 8, 100)
	s.Submit(0, hog)
	s.Submit(0, next)
	if !s.Kill(10, "hog") {
		t.Fatal("kill failed")
	}
	if next.State() != job.Running {
		t.Fatalf("queued job not promoted after kill: %v", next.State())
	}
}

// TestByNameProducesDistinctStrategies: every name the binaries and the
// scenario specs accept resolves to its own strategy, the empty name to
// equipartition, and anything else to an error naming the valid ones.
func TestByNameProducesDistinctStrategies(t *testing.T) {
	got := map[string]string{}
	for _, name := range []string{"", "fcfs", "backfill", "equipartition", "profit"} {
		f, err := ByName(name)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		got[name] = f(spec(8), Config{}).Name()
	}
	if got[""] != got["equipartition"] {
		t.Fatalf("empty name built %q, want equipartition", got[""])
	}
	delete(got, "")
	distinct := map[string]bool{}
	for name, built := range got {
		if !strings.Contains(built, name) {
			t.Errorf("%q built a scheduler calling itself %q", name, built)
		}
		distinct[built] = true
	}
	if len(distinct) != 4 {
		t.Fatalf("factories collapsed: %v", got)
	}
	if _, err := ByName("lottery"); err == nil || !strings.Contains(err.Error(), "equipartition") {
		t.Fatalf("unknown name: err = %v, want one naming the valid strategies", err)
	}
}
