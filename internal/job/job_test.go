package job

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"faucets/internal/qos"
	"faucets/internal/sim"
)

func contract() *qos.Contract {
	return &qos.Contract{App: "lu", MinPE: 2, MaxPE: 16, Work: 1000}
}

func TestLifecycleHappyPath(t *testing.T) {
	j := New("j1", "alice", contract(), 0)
	if j.State() != Pending {
		t.Fatalf("state=%v", j.State())
	}
	if err := j.Start(10, 10, 1.0); err != nil {
		t.Fatal(err)
	}
	if j.State() != Running || j.PEs() != 10 || j.StartTime != 10 {
		t.Fatalf("after start: %v", j)
	}
	// 1000 work on 10 perfectly-scalable PEs = 100s → done at t=110.
	if done := j.AdvanceTo(109); done {
		t.Fatal("finished early")
	}
	if done := j.AdvanceTo(110); !done {
		t.Fatal("did not finish at t=110")
	}
	if j.State() != Finished || j.FinishTime != 110 {
		t.Fatalf("finish: state=%v t=%v", j.State(), j.FinishTime)
	}
	if rt := j.ResponseTime(); rt != 110 {
		t.Fatalf("response=%v", rt)
	}
	if math.Abs(j.CPUUsed()-1000) > 1e-9 {
		t.Fatalf("cpuUsed=%v, want 1000", j.CPUUsed())
	}
}

func TestFinishTimeExactBetweenUpdates(t *testing.T) {
	j := New("j", "u", contract(), 0)
	_ = j.Start(0, 10, 1.0) // completes at t=100
	if done := j.AdvanceTo(500); !done {
		t.Fatal("not finished")
	}
	if j.FinishTime != 100 {
		t.Fatalf("FinishTime=%v, want exact 100", j.FinishTime)
	}
}

func TestStartValidation(t *testing.T) {
	j := New("j", "u", contract(), 0)
	if err := j.Start(0, 1, 1.0); !errors.Is(err, ErrBounds) {
		t.Fatalf("below MinPE: %v", err)
	}
	if err := j.Start(0, 17, 1.0); !errors.Is(err, ErrBounds) {
		t.Fatalf("above MaxPE: %v", err)
	}
	if err := j.Start(0, 4, 0); err == nil {
		t.Fatal("zero speed accepted")
	}
	_ = j.Start(0, 4, 1.0)
	if err := j.Start(0, 4, 1.0); !errors.Is(err, ErrState) {
		t.Fatalf("double start: %v", err)
	}
}

func TestReconfigureShrinkExpand(t *testing.T) {
	j := New("j", "u", contract(), 0)
	_ = j.Start(0, 10, 1.0)
	j.AdvanceTo(50) // 500 work done, 500 left
	if err := j.Reconfigure(50, 5, 0); err != nil {
		t.Fatal(err)
	}
	if j.PEs() != 5 {
		t.Fatalf("pe=%d", j.PEs())
	}
	// 500 work at 5 PEs = 100s more → completes at 150.
	ct, ok := j.CompletionTime(50)
	if !ok || math.Abs(ct-150) > 1e-9 {
		t.Fatalf("completion=%v ok=%v, want 150", ct, ok)
	}
	if !j.AdvanceTo(150) {
		t.Fatal("did not finish")
	}
}

func TestReconfigureLatencyStallsProgress(t *testing.T) {
	j := New("j", "u", contract(), 0)
	_ = j.Start(0, 10, 1.0)
	j.AdvanceTo(50)                                  // 500 done
	if err := j.Reconfigure(50, 10, 5); err != nil { // same size: no-op
		t.Fatal(err)
	}
	// 500 work left at 10 PEs, with no stall: done at 100.
	if ct, ok := j.CompletionTime(50); !ok || math.Abs(ct-100) > 1e-9 {
		t.Fatalf("same-size reconfigure should be free: completion=%v ok=%v, want 100", ct, ok)
	}
	if err := j.Reconfigure(50, 5, 5); err != nil {
		t.Fatal(err)
	}
	// Stalled until t=55, then 500 work at 5 PEs = 100s → done at 155.
	ct, ok := j.CompletionTime(50)
	if !ok || math.Abs(ct-155) > 1e-9 {
		t.Fatalf("completion=%v, want 155", ct)
	}
	j.AdvanceTo(52) // inside the stall: no progress
	if math.Abs(j.DoneWork()-500) > 1e-9 {
		t.Fatalf("progress during stall: %v", j.DoneWork())
	}
	if !j.AdvanceTo(155) {
		t.Fatal("did not finish at 155")
	}
}

func TestReconfigureBounds(t *testing.T) {
	j := New("j", "u", contract(), 0)
	_ = j.Start(0, 4, 1.0)
	if err := j.Reconfigure(1, 1, 0); !errors.Is(err, ErrBounds) {
		t.Fatalf("err=%v", err)
	}
	if err := j.Reconfigure(1, 100, 0); !errors.Is(err, ErrBounds) {
		t.Fatalf("err=%v", err)
	}
	p := New("p", "u", contract(), 0)
	if err := p.Reconfigure(0, 4, 0); !errors.Is(err, ErrState) {
		t.Fatalf("reconfigure pending job: %v", err)
	}
}

func TestCheckpointRestart(t *testing.T) {
	j := New("j", "u", contract(), 0)
	_ = j.Start(0, 10, 1.0)
	j.AdvanceTo(30) // 300 done
	if err := j.Checkpoint(30); err != nil {
		t.Fatal(err)
	}
	if j.State() != Checkpointed || j.PEs() != 0 || j.Checkpoints() != 1 {
		t.Fatalf("after checkpoint: %v", j)
	}
	if _, ok := j.CompletionTime(30); ok {
		t.Fatal("checkpointed job has no completion time")
	}
	// Restart later on a different machine (speed 2).
	if err := j.Start(100, 7, 2.0); err != nil {
		t.Fatal(err)
	}
	if j.StartTime != 0 {
		t.Fatalf("StartTime must keep first start: %v", j.StartTime)
	}
	// 700 work at 7 PEs speed 2 → 50s → done at 150.
	if !j.AdvanceTo(150) {
		t.Fatal("did not finish after restart")
	}
	if j.FinishTime != 150 {
		t.Fatalf("FinishTime=%v", j.FinishTime)
	}
}

func TestCheckpointRequiresRunning(t *testing.T) {
	j := New("j", "u", contract(), 0)
	if err := j.Checkpoint(0); !errors.Is(err, ErrState) {
		t.Fatalf("err=%v", err)
	}
}

func TestRejectAndKill(t *testing.T) {
	j := New("j", "u", contract(), 5)
	if err := j.Reject(6); err != nil {
		t.Fatal(err)
	}
	if j.State() != Rejected || !j.State().Terminal() {
		t.Fatalf("state=%v", j.State())
	}
	if err := j.Reject(7); !errors.Is(err, ErrState) {
		t.Fatal("double reject accepted")
	}

	k := New("k", "u", contract(), 0)
	_ = k.Start(0, 4, 1.0)
	if err := k.Kill(10); err != nil {
		t.Fatal(err)
	}
	if k.State() != Killed || k.PEs() != 0 {
		t.Fatalf("after kill: %v", k)
	}
	if k.DoneWork() != 40 { // 10s * 4 PEs
		t.Fatalf("doneWork=%v", k.DoneWork())
	}
	if err := k.Kill(11); !errors.Is(err, ErrState) {
		t.Fatal("kill of terminal job accepted")
	}
}

func TestPayoutAndDeadline(t *testing.T) {
	c := contract()
	c.Payoff = qos.Payoff{Soft: 150, Hard: 300, AtSoft: 100, AtHard: 20, Penalty: 40}
	j := New("j", "u", c, 0)
	_ = j.Start(0, 10, 1.0) // finishes at 100 < soft 150
	j.AdvanceTo(1e9)
	if j.Payout() != 100 {
		t.Fatalf("payout=%v", j.Payout())
	}
	if !j.MetDeadline() {
		t.Fatal("deadline met but not reported")
	}

	late := New("l", "u", c, 0)
	_ = late.Start(0, 2, 1.0) // 500s > hard 300
	late.AdvanceTo(1e9)
	if late.Payout() != -40 {
		t.Fatalf("late payout=%v", late.Payout())
	}
	if late.MetDeadline() {
		t.Fatal("missed deadline reported as met")
	}
}

func TestMetDeadlineNoDeadline(t *testing.T) {
	j := New("j", "u", contract(), 0)
	_ = j.Start(0, 2, 1.0)
	j.AdvanceTo(1e9)
	if !j.MetDeadline() {
		t.Fatal("job without deadline must always meet it")
	}
}

func TestStateStrings(t *testing.T) {
	for s, want := range map[State]string{
		Pending: "pending", Running: "running", Checkpointed: "checkpointed",
		Finished: "finished", Rejected: "rejected", Killed: "killed", State(99): "state(99)",
	} {
		if s.String() != want {
			t.Errorf("%d.String()=%q want %q", int(s), s.String(), want)
		}
	}
	j := New("j", "u", contract(), 0)
	if !strings.Contains(j.String(), "pending") {
		t.Fatalf("String=%q", j.String())
	}
}

// Property: work is conserved — under any schedule of reconfigurations
// with zero latency, the job finishes exactly when cumulative
// speedup-seconds equal the contract work, and DoneWork never exceeds
// Work.
func TestWorkConservationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		c := &qos.Contract{App: "p", MinPE: 1, MaxPE: 32, Work: 640}
		j := New("p", "u", c, 0)
		pe := 1 + rng.Intn(32)
		if j.Start(0, pe, 1.0) != nil {
			return false
		}
		now := 0.0
		var expected float64 // accumulated speedup-seconds
		for i := 0; i < 50 && j.State() == Running; i++ {
			dt := rng.Range(0.1, 20)
			now += dt
			preRate := c.Speedup(j.PEs())
			finished := j.AdvanceTo(now)
			if finished {
				// Exact completion: remaining work fit within dt.
				if math.Abs(j.DoneWork()-c.Work) > 1e-6 {
					return false
				}
				break
			}
			expected += preRate * dt
			if math.Abs(j.DoneWork()-expected) > 1e-6 {
				return false
			}
			pe = 1 + rng.Intn(32)
			if j.Reconfigure(now, pe, 0) != nil {
				return false
			}
		}
		return j.DoneWork() <= c.Work+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: CPU-seconds consumed always equals the integral of allocation
// size over running time, independent of reconfiguration pattern.
func TestCPUAccountingProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		c := &qos.Contract{App: "p", MinPE: 1, MaxPE: 8, Work: 1e9} // never finishes
		j := New("p", "u", c, 0)
		pe := 1 + rng.Intn(8)
		_ = j.Start(0, pe, 1.0)
		now, cpu := 0.0, 0.0
		for i := 0; i < 30; i++ {
			dt := rng.Range(0.5, 10)
			cpu += dt * float64(j.PEs())
			now += dt
			j.AdvanceTo(now)
			_ = j.Reconfigure(now, 1+rng.Intn(8), 0)
		}
		return math.Abs(j.CPUUsed()-cpu) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
