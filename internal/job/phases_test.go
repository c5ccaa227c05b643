package job

import (
	"math"
	"testing"
	"testing/quick"

	"faucets/internal/qos"
	"faucets/internal/sim"
)

// phased builds a two-phase contract: a wide scalable phase followed by
// a narrow one that cannot use more than 4 processors.
func phased() *qos.Contract {
	return &qos.Contract{
		App: "multiphase", MinPE: 2, MaxPE: 16, Work: 1200,
		Phases: []qos.Phase{
			{Name: "fft", Work: 800, MinPE: 2, MaxPE: 16},
			{Name: "reduce", Work: 400, MinPE: 1, MaxPE: 4},
		},
	}
}

func TestPhaseEffAndSpeedup(t *testing.T) {
	ph := qos.Phase{Name: "p", Work: 10, MinPE: 2, MaxPE: 8, EffMin: 0.9, EffMax: 0.5}
	if ph.Eff(2) != 0.9 || ph.Eff(8) != 0.5 {
		t.Fatalf("bounds: %v %v", ph.Eff(2), ph.Eff(8))
	}
	if got := ph.Eff(5); math.Abs(got-0.7) > 1e-12 {
		t.Fatalf("midpoint eff=%v", got)
	}
	// Surplus processors idle: speedup clamps at MaxPE.
	if ph.Speedup(100) != ph.Speedup(8) {
		t.Fatal("speedup not clamped at phase MaxPE")
	}
	if ph.Speedup(0) != 0 {
		t.Fatal("zero processors must give zero speedup")
	}
	free := qos.Phase{Name: "x", Work: 1, MinPE: 1, MaxPE: 4}
	if free.Eff(2) != 1.0 {
		t.Fatal("default efficiency must be 1")
	}
}

func TestPhaseAt(t *testing.T) {
	c := phased()
	idx, ph, ok := c.PhaseAt(0)
	if !ok || idx != 0 || ph.Name != "fft" {
		t.Fatalf("at 0: %d %s %v", idx, ph.Name, ok)
	}
	idx, ph, _ = c.PhaseAt(799.9)
	if idx != 0 {
		t.Fatalf("at 799.9: %d", idx)
	}
	idx, ph, _ = c.PhaseAt(800)
	if idx != 1 || ph.Name != "reduce" {
		t.Fatalf("at 800: %d %s", idx, ph.Name)
	}
	idx, _, _ = c.PhaseAt(99999)
	if idx != 1 {
		t.Fatalf("past end: %d", idx)
	}
	single := &qos.Contract{App: "s", MinPE: 1, MaxPE: 1, Work: 10}
	if _, _, ok := single.PhaseAt(0); ok {
		t.Fatal("single-phase contract reported phases")
	}
}

func TestPhaseRemaining(t *testing.T) {
	c := phased()
	if got := c.PhaseRemaining(0); got != 800 {
		t.Fatalf("at 0: %v", got)
	}
	if got := c.PhaseRemaining(500); got != 300 {
		t.Fatalf("at 500: %v", got)
	}
	if got := c.PhaseRemaining(800); got != 400 {
		t.Fatalf("at 800: %v", got)
	}
	if got := c.PhaseRemaining(1200); got != 0 {
		t.Fatalf("at end: %v", got)
	}
	single := &qos.Contract{App: "s", MinPE: 1, MaxPE: 1, Work: 10}
	if got := single.PhaseRemaining(4); got != 6 {
		t.Fatalf("single-phase remaining: %v", got)
	}
}

func TestPhasedExecutionRates(t *testing.T) {
	// On 16 PEs: phase 1 (800 work, eff 1, 16 PEs) takes 50s; phase 2
	// clamps to 4 PEs → 400/4 = 100s. Total 150s.
	j := New("mp", "u", phased(), 0)
	if err := j.Start(0, 16, 1.0); err != nil {
		t.Fatal(err)
	}
	ct, ok := j.CompletionTime(0)
	if !ok || math.Abs(ct-150) > 1e-9 {
		t.Fatalf("completion=%v ok=%v, want 150", ct, ok)
	}
	// Mid-phase-1 progress.
	j.AdvanceTo(25)
	if math.Abs(j.DoneWork()-400) > 1e-9 {
		t.Fatalf("done=%v, want 400", j.DoneWork())
	}
	if idx, name := j.CurrentPhase(); idx != 0 || name != "fft" {
		t.Fatalf("phase=%d %s", idx, name)
	}
	// Cross the boundary: at t=70, 50s of phase 1 (800) + 20s of phase 2
	// at 4 PEs (80) = 880.
	j.AdvanceTo(70)
	if math.Abs(j.DoneWork()-880) > 1e-9 {
		t.Fatalf("done=%v, want 880", j.DoneWork())
	}
	if idx, name := j.CurrentPhase(); idx != 1 || name != "reduce" {
		t.Fatalf("phase=%d %s", idx, name)
	}
	// Exact finish.
	if !j.AdvanceTo(150) {
		t.Fatal("did not finish at 150")
	}
	if j.FinishTime != 150 {
		t.Fatalf("finish=%v", j.FinishTime)
	}
	// CPU accounting counts all held processors even when a narrow phase
	// lets some idle: 150s * 16 PEs.
	if math.Abs(j.CPUUsed()-2400) > 1e-9 {
		t.Fatalf("cpu=%v, want 2400", j.CPUUsed())
	}
}

func TestPhasedCompletionAfterReconfigure(t *testing.T) {
	j := New("mp", "u", phased(), 0)
	_ = j.Start(0, 16, 1.0)
	j.AdvanceTo(50) // phase 1 done exactly
	// Shrink to 4: phase 2 runs at its natural width, 100s more.
	if err := j.Reconfigure(50, 4, 0); err != nil {
		t.Fatal(err)
	}
	ct, ok := j.CompletionTime(50)
	if !ok || math.Abs(ct-150) > 1e-9 {
		t.Fatalf("completion=%v, want 150", ct)
	}
	if !j.AdvanceTo(150) {
		t.Fatal("did not finish")
	}
}

func TestPhasedCompletionDuringStall(t *testing.T) {
	j := New("mp", "u", phased(), 0)
	_ = j.Start(0, 16, 1.0)
	j.AdvanceTo(25) // 400 done in phase 1
	// Reconfigure with a 5s stall: completion pushes out by 5.
	if err := j.Reconfigure(25, 8, 5); err != nil {
		t.Fatal(err)
	}
	// Remaining: 400 of phase 1 at 8 PEs (50s) + 400 of phase 2 at 4 PEs
	// (100s), starting at 30 → 180.
	ct, ok := j.CompletionTime(25)
	if !ok || math.Abs(ct-180) > 1e-9 {
		t.Fatalf("completion=%v, want 180", ct)
	}
	if !j.AdvanceTo(180) {
		t.Fatal("did not finish at 180")
	}
}

// Property: for any random phase split of fixed total work run at a
// fixed allocation, progress is continuous, monotone, and the job
// finishes exactly when the per-phase time sum elapses.
func TestPhasedWorkConservationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		nPhases := 1 + rng.Intn(4)
		total := 0.0
		var phases []qos.Phase
		for i := 0; i < nPhases; i++ {
			w := rng.Range(50, 500)
			total += w
			min := 1 + rng.Intn(4)
			phases = append(phases, qos.Phase{
				Name: "p", Work: w, MinPE: min, MaxPE: min + rng.Intn(12),
				EffMin: 0.95, EffMax: rng.Range(0.5, 0.95),
			})
		}
		c := &qos.Contract{App: "p", MinPE: 1, MaxPE: 16, Work: total, Phases: phases}
		if c.Validate() != nil {
			return false
		}
		pe := 1 + rng.Intn(16)
		j := New("p", "u", c, 0)
		if j.Start(0, pe, 1.0) != nil {
			return false
		}
		// Expected finish: sum of phase times at this allocation.
		var expect float64
		for _, ph := range phases {
			r := ph.Speedup(pe)
			if r <= 0 {
				return false
			}
			expect += ph.Work / r
		}
		ct, ok := j.CompletionTime(0)
		if !ok || math.Abs(ct-expect) > 1e-6 {
			return false
		}
		// March forward in random steps; doneWork must be monotone and
		// the finish exact.
		now, prev := 0.0, 0.0
		for now < expect {
			now += rng.Range(1, expect/3+1)
			finished := j.AdvanceTo(now)
			if j.DoneWork()+1e-9 < prev {
				return false
			}
			prev = j.DoneWork()
			if finished {
				return math.Abs(j.FinishTime-expect) < 1e-6 &&
					math.Abs(j.DoneWork()-total) < 1e-6
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNextPhaseBoundary(t *testing.T) {
	j := New("b", "u", phased(), 0)
	if _, ok := j.NextPhaseBoundary(); ok {
		t.Fatal("pending job reported a boundary")
	}
	_ = j.Start(0, 16, 1.0) // phase 1: 800 work at 16 PEs → boundary at 50
	bt, ok := j.NextPhaseBoundary()
	if !ok || math.Abs(bt-50) > 1e-9 {
		t.Fatalf("boundary=%v ok=%v, want 50", bt, ok)
	}
	// Booking part of the progress projects the same instant.
	j.AdvanceTo(25)
	bt, ok = j.NextPhaseBoundary()
	if !ok || math.Abs(bt-50) > 1e-9 {
		t.Fatalf("boundary from t=25: %v", bt)
	}
	// In the final phase there is no next boundary.
	j.AdvanceTo(60)
	if _, ok := j.NextPhaseBoundary(); ok {
		t.Fatal("final phase reported a boundary")
	}
	// Single-phase jobs never report one.
	s := New("s", "u", &qos.Contract{App: "x", MinPE: 1, MaxPE: 4, Work: 100}, 0)
	_ = s.Start(0, 4, 1.0)
	if _, ok := s.NextPhaseBoundary(); ok {
		t.Fatal("single-phase job reported a boundary")
	}
}

func TestEffectiveBounds(t *testing.T) {
	j := New("eb", "u", phased(), 0)
	// Pending: first phase (wide) bounds, clamped into the contract.
	min, max := j.EffectiveBounds()
	if min != 2 || max != 16 {
		t.Fatalf("wide-phase bounds [%d,%d]", min, max)
	}
	_ = j.Start(0, 16, 1.0)
	j.AdvanceTo(60) // into the narrow phase (MinPE 1 < contract MinPE 2)
	min, max = j.EffectiveBounds()
	if min != 2 || max != 4 {
		t.Fatalf("narrow-phase bounds [%d,%d], want [2,4] (min clamped up)", min, max)
	}
	// Single-phase: contract bounds.
	s := New("s", "u", &qos.Contract{App: "x", MinPE: 3, MaxPE: 9, Work: 10}, 0)
	if a, b := s.EffectiveBounds(); a != 3 || b != 9 {
		t.Fatalf("bounds [%d,%d]", a, b)
	}
	// Phase entirely below the contract minimum clamps to the minimum.
	low := New("low", "u", &qos.Contract{
		App: "x", MinPE: 8, MaxPE: 16, Work: 10,
		Phases: []qos.Phase{{Name: "tiny", Work: 10, MinPE: 1, MaxPE: 2}},
	}, 0)
	if a, b := low.EffectiveBounds(); a != 8 || b != 8 {
		t.Fatalf("clamped bounds [%d,%d], want [8,8]", a, b)
	}
}

func TestRemainingWork(t *testing.T) {
	j := New("rw", "u", &qos.Contract{App: "x", MinPE: 1, MaxPE: 4, Work: 100}, 0)
	if j.RemainingWork() != 100 {
		t.Fatalf("pending remaining=%v", j.RemainingWork())
	}
	_ = j.Start(0, 4, 1.0)
	j.AdvanceTo(10) // 40 done
	if got := j.RemainingWork(); math.Abs(got-60) > 1e-9 {
		t.Fatalf("remaining=%v", got)
	}
	j.AdvanceTo(1e6)
	if j.RemainingWork() != 0 {
		t.Fatalf("finished remaining=%v", j.RemainingWork())
	}
}
