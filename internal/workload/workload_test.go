package workload

import (
	"errors"
	"path/filepath"
	"testing"
	"testing/quick"
)

func TestGenerateDeterministic(t *testing.T) {
	s := Default(42, 100, 10)
	a, err := Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Generate(s)
	if len(a.Items) != 100 || len(b.Items) != 100 {
		t.Fatalf("lens %d %d", len(a.Items), len(b.Items))
	}
	for i := range a.Items {
		if a.Items[i].SubmitAt != b.Items[i].SubmitAt ||
			a.Items[i].Contract.Work != b.Items[i].Contract.Work ||
			a.Items[i].Contract.MaxPE != b.Items[i].Contract.MaxPE {
			t.Fatalf("item %d differs between same-seed runs", i)
		}
	}
	c, _ := Generate(Default(43, 100, 10))
	same := 0
	for i := range a.Items {
		if a.Items[i].Contract.Work == c.Items[i].Contract.Work {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("different seeds produced %d/100 identical works", same)
	}
}

func TestGenerateContractsValid(t *testing.T) {
	tr, err := Generate(Default(7, 500, 5))
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for i, it := range tr.Items {
		if err := it.Contract.Validate(); err != nil {
			t.Fatalf("item %d invalid: %v", i, err)
		}
		if it.SubmitAt < prev {
			t.Fatalf("item %d out of order", i)
		}
		prev = it.SubmitAt
		if it.Contract.MaxPE > 64 {
			t.Fatalf("item %d exceeds MaxPE: %d", i, it.Contract.MaxPE)
		}
		if it.Contract.Work < 60 || it.Contract.Work > 7200 {
			t.Fatalf("item %d work out of range: %v", i, it.Contract.Work)
		}
	}
}

func TestGenerateFractions(t *testing.T) {
	tr, _ := Generate(Default(11, 2000, 1))
	adaptive, deadlined := 0, 0
	for _, it := range tr.Items {
		if it.Contract.MaxPE > it.Contract.MinPE {
			adaptive++
		}
		if !it.Contract.Payoff.Zero() {
			deadlined++
		}
	}
	aFrac := float64(adaptive) / 2000
	dFrac := float64(deadlined) / 2000
	if aFrac < 0.7 || aFrac > 0.9 {
		t.Fatalf("adaptive fraction %v, want ≈0.8", aFrac)
	}
	if dFrac < 0.4 || dFrac > 0.6 {
		t.Fatalf("deadline fraction %v, want ≈0.5", dFrac)
	}
}

func TestGenerateRigidWhenAdaptiveZero(t *testing.T) {
	s := Default(1, 50, 1)
	s.AdaptiveFraction = 0
	tr, _ := Generate(s)
	for _, it := range tr.Items {
		if it.Contract.MaxPE > it.Contract.MinPE {
			t.Fatal("rigid-only workload produced adaptive job")
		}
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []Spec{
		{Jobs: -1, MeanInterarrival: 1, MinWork: 1, MaxWork: 2, MaxPE: 1},
		{Jobs: 1, MeanInterarrival: 0, MinWork: 1, MaxWork: 2, MaxPE: 1},
		{Jobs: 1, MeanInterarrival: 1, MinWork: 0, MaxWork: 2, MaxPE: 1},
		{Jobs: 1, MeanInterarrival: 1, MinWork: 3, MaxWork: 2, MaxPE: 1},
		{Jobs: 1, MeanInterarrival: 1, MinWork: 1, MaxWork: 2, MaxPE: 0},
		{Jobs: 1, MeanInterarrival: 1, MinWork: 1, MaxWork: 2, MaxPE: 1, AdaptiveFraction: 2},
		{Jobs: 1, MeanInterarrival: 1, MinWork: 1, MaxWork: 2, MaxPE: 1, DeadlineFraction: -0.5},
		{Jobs: 1, MeanInterarrival: 1, MinWork: 1, MaxWork: 2, MaxPE: 1, DeadlineFraction: 0.5, DeadlineTightness: 0.2},
	}
	for i, s := range bad {
		if _, err := Generate(s); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

// TestValidateTypedErrors pins each invalid corner to its sentinel so
// callers can classify failures with errors.Is instead of string
// matching. Jobs == 0 is included: a zero-job spec used to slip through
// and generate a degenerate empty trace.
func TestValidateTypedErrors(t *testing.T) {
	valid := Spec{Jobs: 1, MeanInterarrival: 1, MinWork: 1, MaxWork: 2, MaxPE: 1}
	cases := []struct {
		name string
		mut  func(*Spec)
		want error
	}{
		{"zero jobs", func(s *Spec) { s.Jobs = 0 }, ErrNonPositiveJobs},
		{"negative jobs", func(s *Spec) { s.Jobs = -3 }, ErrNonPositiveJobs},
		{"zero interarrival", func(s *Spec) { s.MeanInterarrival = 0 }, ErrNonPositiveInterarrival},
		{"negative interarrival", func(s *Spec) { s.MeanInterarrival = -1 }, ErrNonPositiveInterarrival},
		{"zero min work", func(s *Spec) { s.MinWork = 0 }, ErrBadWorkRange},
		{"min above max", func(s *Spec) { s.MinWork, s.MaxWork = 5, 2 }, ErrBadWorkRange},
		{"zero max pe", func(s *Spec) { s.MaxPE = 0 }, ErrBadMaxPE},
		{"adaptive above one", func(s *Spec) { s.AdaptiveFraction = 1.5 }, ErrBadFraction},
		{"negative deadline frac", func(s *Spec) { s.DeadlineFraction = -0.1 }, ErrBadFraction},
		{"phased above one", func(s *Spec) { s.PhasedFraction = 2 }, ErrBadFraction},
		{"loose tightness", func(s *Spec) { s.DeadlineFraction, s.DeadlineTightness = 0.5, 0.9 }, ErrBadTightness},
	}
	for _, tc := range cases {
		s := valid
		tc.mut(&s)
		err := s.Validate()
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want errors.Is %v", tc.name, err, tc.want)
		}
		if _, gerr := Generate(s); gerr == nil {
			t.Errorf("%s: Generate accepted the invalid spec", tc.name)
		}
	}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	// ValidateShape ignores the arrival fields: the scenario engine
	// validates shape-only mixes whose arrivals come from its traffic
	// processes.
	shapeOnly := valid
	shapeOnly.Jobs, shapeOnly.MeanInterarrival = 0, 0
	if err := shapeOnly.ValidateShape(); err != nil {
		t.Fatalf("ValidateShape rejected arrival-free spec: %v", err)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	tr, _ := Generate(Default(3, 25, 10))
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Items) != 25 || back.Spec.Seed != 3 {
		t.Fatalf("round trip: %d items seed=%d", len(back.Items), back.Spec.Seed)
	}
	if back.Items[10].Contract.Work != tr.Items[10].Contract.Work {
		t.Fatal("contract contents changed")
	}
}

func TestLoadTraceRejectsCorrupt(t *testing.T) {
	if _, err := LoadTrace(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestTotalWorkAndOfferedLoad(t *testing.T) {
	tr, _ := Generate(Default(5, 200, 10))
	if tr.TotalWork() <= 0 {
		t.Fatal("no work generated")
	}
	load := tr.OfferedLoad(128)
	if load <= 0 {
		t.Fatalf("load=%v", load)
	}
	// Doubling the capacity halves the offered load.
	if half := tr.OfferedLoad(256); half <= 0 || half >= load {
		t.Fatalf("capacity scaling broken: %v vs %v", half, load)
	}
	empty := &Trace{}
	if empty.OfferedLoad(10) != 0 {
		t.Fatal("empty trace load must be 0")
	}
}

// Property: mean interarrival of generated traces approximates the spec.
func TestInterarrivalProperty(t *testing.T) {
	f := func(seed uint64) bool {
		s := Default(seed, 500, 7)
		tr, err := Generate(s)
		if err != nil {
			return false
		}
		span := tr.Items[len(tr.Items)-1].SubmitAt
		mean := span / 500
		return mean > 4 && mean < 11 // loose CLT bounds around 7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratePhasedJobs(t *testing.T) {
	s := Default(19, 500, 5)
	s.PhasedFraction = 0.5
	tr, err := Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	phased := 0
	for i, it := range tr.Items {
		if err := it.Contract.Validate(); err != nil {
			t.Fatalf("item %d invalid: %v", i, err)
		}
		if len(it.Contract.Phases) > 0 {
			phased++
			if len(it.Contract.Phases) != 2 {
				t.Fatalf("item %d has %d phases", i, len(it.Contract.Phases))
			}
			// Narrow phase must really be narrower.
			if it.Contract.Phases[1].MaxPE > it.Contract.Phases[0].MaxPE {
				t.Fatalf("item %d narrow phase wider than compute phase", i)
			}
		}
	}
	frac := float64(phased) / 500
	if frac < 0.3 || frac > 0.6 {
		t.Fatalf("phased fraction %v, want ≈0.5 (1-PE jobs are exempt)", frac)
	}
	// Invalid fraction rejected.
	bad := Default(1, 1, 1)
	bad.PhasedFraction = 1.5
	if _, err := Generate(bad); err == nil {
		t.Fatal("bad PhasedFraction accepted")
	}
}

func TestPhasedWorkloadRunsThroughSimulation(t *testing.T) {
	s := Default(23, 40, 5)
	s.PhasedFraction = 0.7
	s.MaxPE = 16
	tr, err := Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	if tr.TotalWork() <= 0 {
		t.Fatal("no work")
	}
}
