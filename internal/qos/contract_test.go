package qos

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func valid() *Contract {
	return &Contract{
		App:    "namd",
		MinPE:  4,
		MaxPE:  64,
		Work:   3600,
		EffMin: 0.95,
		EffMax: 0.70,
	}
}

func TestValidateAccepts(t *testing.T) {
	if err := valid().Validate(); err != nil {
		t.Fatalf("valid contract rejected: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Contract)
		want error
	}{
		{"no app", func(c *Contract) { c.App = "" }, ErrNoApp},
		{"zero minpe", func(c *Contract) { c.MinPE = 0 }, ErrPERange},
		{"max < min", func(c *Contract) { c.MaxPE = 2 }, ErrPERange},
		{"zero work", func(c *Contract) { c.Work = 0 }, ErrWork},
		{"negative work", func(c *Contract) { c.Work = -5 }, ErrWork},
		{"eff > 1", func(c *Contract) { c.EffMin = 1.5 }, ErrEfficiency},
		{"eff < 0", func(c *Contract) { c.EffMax = -0.1 }, ErrEfficiency},
		{"one-sided eff", func(c *Contract) { c.EffMin = 0 }, ErrEfficiency},
		{"negative deadline", func(c *Contract) { c.Deadline = -1 }, ErrDeadline},
		{"bad payoff", func(c *Contract) { c.Payoff = Payoff{Soft: -1, Hard: 2, AtSoft: 1} }, ErrPayoffDeadlines},
	}
	for _, tc := range cases {
		c := valid()
		tc.mut(c)
		err := c.Validate()
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err=%v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestValidatePhases(t *testing.T) {
	c := valid()
	c.Phases = []Phase{
		{Name: "fft", Work: 1600, MinPE: 4, MaxPE: 64},
		{Name: "integrate", Work: 2000, MinPE: 8, MaxPE: 32},
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("phased contract rejected: %v", err)
	}
	c.Phases[1].Work = 1000 // sum no longer equals Work
	if err := c.Validate(); !errors.Is(err, ErrPhases) {
		t.Fatalf("mismatched phase sum accepted: %v", err)
	}
	c.Phases[1].Work = 2000
	c.Phases[0].MinPE = 0
	if err := c.Validate(); !errors.Is(err, ErrPERange) {
		t.Fatalf("bad phase PE range accepted: %v", err)
	}
	c.Phases[0].MinPE = 4
	c.Phases[0].Work = -3
	if err := c.Validate(); !errors.Is(err, ErrWork) {
		t.Fatalf("negative phase work accepted: %v", err)
	}
}

func TestEffInterpolation(t *testing.T) {
	c := valid() // eff 0.95 at 4 PEs, 0.70 at 64 PEs
	if got := c.Eff(4); got != 0.95 {
		t.Fatalf("Eff(min)=%v", got)
	}
	if got := c.Eff(64); got != 0.70 {
		t.Fatalf("Eff(max)=%v", got)
	}
	mid := c.Eff(34) // halfway through [4,64]
	want := 0.95 + 0.5*(0.70-0.95)
	if math.Abs(mid-want) > 1e-12 {
		t.Fatalf("Eff(mid)=%v, want %v", mid, want)
	}
	// Clamping outside the range.
	if c.Eff(1) != 0.95 || c.Eff(1000) != 0.70 {
		t.Fatal("Eff must clamp outside [MinPE, MaxPE]")
	}
}

func TestEffPerfectlyScalableDefault(t *testing.T) {
	c := &Contract{App: "x", MinPE: 1, MaxPE: 128, Work: 100}
	for _, p := range []int{1, 17, 128} {
		if c.Eff(p) != 1.0 {
			t.Fatalf("default efficiency at %d PEs = %v, want 1", p, c.Eff(p))
		}
	}
}

func TestEffRigidJob(t *testing.T) {
	c := &Contract{App: "x", MinPE: 8, MaxPE: 8, Work: 100, EffMin: 0.9, EffMax: 0.9}
	if c.Eff(8) != 0.9 {
		t.Fatalf("rigid Eff=%v", c.Eff(8))
	}
	if c.Adaptive() {
		t.Fatal("MinPE==MaxPE job must not be adaptive")
	}
}

func TestExecTimeModel(t *testing.T) {
	c := &Contract{App: "x", MinPE: 1, MaxPE: 100, Work: 1000}
	// Perfectly scalable: 1000s of work on 10 PEs at speed 1 = 100s.
	if got := c.ExecTime(10, 1.0); math.Abs(got-100) > 1e-12 {
		t.Fatalf("ExecTime=%v, want 100", got)
	}
	// Twice the machine speed halves wall time.
	if got := c.ExecTime(10, 2.0); math.Abs(got-50) > 1e-12 {
		t.Fatalf("ExecTime at speed 2 = %v, want 50", got)
	}
	// Degenerate inputs are safe.
	if c.ExecTime(0, 1) != 0 || c.ExecTime(10, 0) != 0 {
		t.Fatal("degenerate ExecTime should return 0")
	}
}

func TestCPUSecondsGrowsWithInefficiency(t *testing.T) {
	c := valid()
	// CPU-seconds at MaxPE must exceed CPU-seconds at MinPE because
	// efficiency drops (same work spread less efficiently).
	lo := c.CPUSeconds(c.MinPE, 1.0)
	hi := c.CPUSeconds(c.MaxPE, 1.0)
	if hi <= lo {
		t.Fatalf("CPUSeconds(min)=%v CPUSeconds(max)=%v: inefficiency must cost", lo, hi)
	}
}

// Properties of the execution-time model: efficiency stays within the
// interpolation bounds across the whole processor range, ExecTime and
// Speedup are exact inverses through Work, and wall time strictly
// decreases whenever speedup strictly increases.
func TestExecTimeModelProperties(t *testing.T) {
	f := func(seed uint8) bool {
		minPE := 1 + int(seed%8)
		maxPE := minPE + 1 + int(seed/4)
		c := &Contract{App: "p", MinPE: minPE, MaxPE: maxPE, Work: 500,
			EffMin: 0.95, EffMax: 0.60}
		loEff := math.Min(c.EffMin, c.EffMax)
		hiEff := math.Max(c.EffMin, c.EffMax)
		for p := minPE; p <= maxPE; p++ {
			eff := c.Eff(p)
			if eff < loEff-1e-12 || eff > hiEff+1e-12 {
				return false
			}
			// ExecTime * Speedup == Work (model consistency).
			if math.Abs(c.ExecTime(p, 1.0)*c.Speedup(p)-c.Work) > 1e-6 {
				return false
			}
			if p > minPE && c.Speedup(p) > c.Speedup(p-1) &&
				c.ExecTime(p, 1.0) >= c.ExecTime(p-1, 1.0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHardDeadlinePrecedence(t *testing.T) {
	c := valid()
	if c.HardDeadline() != 0 {
		t.Fatal("no deadline should be 0")
	}
	c.Deadline = 500
	if c.HardDeadline() != 500 {
		t.Fatal("simple deadline ignored")
	}
	c.Payoff = Payoff{Soft: 100, Hard: 300, AtSoft: 10, AtHard: 5}
	if c.HardDeadline() != 300 {
		t.Fatal("payoff hard deadline must take precedence")
	}
}

func TestFitsMemory(t *testing.T) {
	c := &Contract{App: "x", MinPE: 4, MaxPE: 16, Work: 10, MemPerPE: 512, TotalMem: 4096}
	if !c.FitsMemory(8, 512) {
		t.Fatal("8 PEs x 512MB = 4096MB should satisfy TotalMem 4096")
	}
	if c.FitsMemory(4, 512) {
		t.Fatal("4 PEs x 512MB < 4096MB total should fail")
	}
	if c.FitsMemory(16, 256) {
		t.Fatal("per-PE memory below requirement should fail")
	}
	free := &Contract{App: "x", MinPE: 1, MaxPE: 1, Work: 10}
	if !free.FitsMemory(1, 1) {
		t.Fatal("contract without memory requirements must always fit")
	}
}

// FitsMachine is the static screen, judged at MinPE: the size an adaptive
// job can be shrunk to, not the one it would like.
func TestFitsMachine(t *testing.T) {
	c := &Contract{App: "x", MinPE: 4, MaxPE: 16, Work: 10, MemPerPE: 512, TotalMem: 4096}
	for _, tc := range []struct {
		numPE, memPerPE int
		want            bool
	}{
		{64, 1024, true}, // 4 × 1024 = TotalMem
		{4, 1024, true},  // exactly MinPE processors
		{3, 4096, false}, // too few processors, however large
		{64, 256, false}, // per-PE memory short
		{64, 512, false}, // 4 × 512 < TotalMem, though 16 × 512 would do
	} {
		if got := c.FitsMachine(tc.numPE, tc.memPerPE); got != tc.want {
			t.Errorf("FitsMachine(%d, %d) = %v, want %v", tc.numPE, tc.memPerPE, got, tc.want)
		}
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	c := valid()
	c.Payoff = Payoff{Soft: 60, Hard: 120, AtSoft: 100, AtHard: 25, Penalty: 50}
	c.Phases = []Phase{{Name: "a", Work: 3600, MinPE: 4, MaxPE: 64}}
	data, err := c.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.App != c.App || back.MinPE != c.MinPE || back.MaxPE != c.MaxPE ||
		back.Payoff != c.Payoff || len(back.Phases) != 1 {
		t.Fatalf("round trip mismatch: %+v vs %+v", back, c)
	}
}

func TestUnmarshalRejectsInvalid(t *testing.T) {
	if _, err := Unmarshal([]byte(`{"app":"","min_pe":1,"max_pe":1,"work":1}`)); err == nil {
		t.Fatal("invalid contract decoded without error")
	}
	if _, err := Unmarshal([]byte(`{not json`)); err == nil {
		t.Fatal("syntactically invalid JSON accepted")
	}
}

func TestStringDescribesContract(t *testing.T) {
	s := valid().String()
	for _, want := range []string{"namd", "[4,64]"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

func TestPhaseHelpersInQOS(t *testing.T) {
	c := &Contract{
		App: "p", MinPE: 1, MaxPE: 8, Work: 300,
		Phases: []Phase{
			{Name: "a", Work: 100, MinPE: 1, MaxPE: 8, EffMin: 0.9, EffMax: 0.6},
			{Name: "b", Work: 200, MinPE: 1, MaxPE: 2},
		},
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	idx, ph, ok := c.PhaseAt(50)
	if !ok || idx != 0 || ph.Name != "a" {
		t.Fatalf("PhaseAt(50): %d %s %v", idx, ph.Name, ok)
	}
	if got := c.PhaseRemaining(150); got != 150 {
		t.Fatalf("PhaseRemaining(150)=%v", got)
	}
	// Phase efficiency interpolation and speedup clamping.
	if c.Phases[0].Eff(1) != 0.9 || c.Phases[0].Eff(8) != 0.6 {
		t.Fatalf("phase eff bounds: %v %v", c.Phases[0].Eff(1), c.Phases[0].Eff(8))
	}
	if c.Phases[1].Speedup(8) != c.Phases[1].Speedup(2) {
		t.Fatal("surplus processors must idle in a narrow phase")
	}
	single := &Contract{App: "s", MinPE: 1, MaxPE: 1, Work: 5}
	if _, _, ok := single.PhaseAt(0); ok {
		t.Fatal("single-phase PhaseAt ok")
	}
	if single.PhaseRemaining(2) != 3 {
		t.Fatalf("single PhaseRemaining=%v", single.PhaseRemaining(2))
	}
}
