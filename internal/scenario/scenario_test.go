package scenario

import (
	"cmp"
	"encoding/json"
	"errors"
	"os"
	"slices"
	"strings"
	"testing"
)

// tinySpec returns a small valid scenario for tests to mutate.
func tinySpec() *Spec {
	return &Spec{
		Name:     "tiny",
		Seed:     1,
		Duration: 500,
		Topology: Topology{Count: 3, PEs: 16},
		Traffic:  []Process{{Kind: "poisson", Rate: 0.1}},
	}
}

func TestValidateRejects(t *testing.T) {
	frac := func(f float64) *float64 { return &f }
	cases := []struct {
		name string
		mut  func(*Spec)
		want error
	}{
		{"zero duration", func(s *Spec) { s.Duration = 0 }, ErrBadDuration},
		{"negative duration", func(s *Spec) { s.Duration = -5 }, ErrBadDuration},
		{"no traffic", func(s *Spec) { s.Traffic = nil }, ErrNoTraffic},
		{"no topology", func(s *Spec) { s.Topology = Topology{} }, ErrNoTopology},
		{"unknown kind", func(s *Spec) { s.Traffic[0].Kind = "sawtooth" }, ErrBadProcess},
		{"poisson zero rate", func(s *Spec) { s.Traffic[0].Rate = 0 }, ErrBadProcess},
		{"diurnal bad amplitude", func(s *Spec) {
			s.Traffic[0] = Process{Kind: "diurnal", Rate: 1, Amplitude: 1.5}
		}, ErrBadProcess},
		{"onoff zero off", func(s *Spec) {
			s.Traffic[0] = Process{Kind: "onoff", Rate: 1, On: 10, Off: 0}
		}, ErrBadProcess},
		{"flash zero width", func(s *Spec) {
			s.Traffic[0] = Process{Kind: "flash", Rate: 1, At: 100, Width: 0}
		}, ErrBadProcess},
		{"adversarial zero burst", func(s *Spec) {
			s.Traffic[0] = Process{Kind: "adversarial", Every: 60, Burst: 0}
		}, ErrBadProcess},
		{"sick beyond count", func(s *Spec) {
			s.Topology.Sick = 4
			s.Topology.Chaos = &ChaosProfile{StallProb: 1}
		}, ErrBadTopology},
		{"sick without chaos", func(s *Spec) { s.Topology.Sick = 1 }, ErrBadTopology},
		{"inverted speed range", func(s *Spec) {
			s.Topology.SpeedMin = 2
			s.Topology.SpeedMax = 1
		}, ErrBadTopology},
		{"nameless explicit server", func(s *Spec) {
			s.Topology = Topology{Servers: []ServerSpec{{PEs: 8}}}
		}, ErrBadTopology},
		{"unknown scheduler", func(s *Spec) { s.Topology.Scheduler = "lottery" }, ErrUnknownName},
		{"unknown bidder", func(s *Spec) { s.Topology.Bidder = "oracle" }, ErrUnknownName},
		{"inverted work range", func(s *Spec) {
			s.Jobs = JobMix{MinWork: 100, MaxWork: 10}
		}, nil}, // wrapped workload error, checked below
		{"bad process override", func(s *Spec) {
			s.Traffic[0].Jobs = &JobMix{AdaptiveFraction: frac(2)}
		}, nil},
	}
	for _, tc := range cases {
		s := tinySpec()
		tc.mut(s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: want error, got nil", tc.name)
			continue
		}
		if tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want errors.Is %v", tc.name, err, tc.want)
		}
	}
	if err := tinySpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

func TestGeneratedTopologyHeterogeneity(t *testing.T) {
	s := tinySpec()
	s.Topology = Topology{Count: 20, PEs: 16, SpeedMin: 0.5, SpeedMax: 2.0, CostMin: 0.01, CostMax: 0.05}
	ms, err := s.machines()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 20 {
		t.Fatalf("got %d machines, want 20", len(ms))
	}
	speeds := map[float64]bool{}
	for _, m := range ms {
		if m.Spec.Speed < 0.5 || m.Spec.Speed >= 2.0 {
			t.Fatalf("speed %v outside [0.5, 2.0)", m.Spec.Speed)
		}
		if m.Spec.CostRate < 0.01 || m.Spec.CostRate >= 0.05 {
			t.Fatalf("cost %v outside [0.01, 0.05)", m.Spec.CostRate)
		}
		speeds[m.Spec.Speed] = true
	}
	if len(speeds) < 10 {
		t.Fatalf("only %d distinct speeds among 20 servers: not heterogeneous", len(speeds))
	}
}

func TestSickMinorityAssignment(t *testing.T) {
	s := tinySpec()
	s.Topology = Topology{Count: 5, PEs: 8, Sick: 2, Chaos: &ChaosProfile{TrickleProb: 1}}
	ms, err := s.machines()
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range ms {
		sick := m.Chaos != nil
		wantSick := i >= 3
		if sick != wantSick {
			t.Errorf("server %d: sick=%v, want %v", i, sick, wantSick)
		}
	}
}

func TestPoissonArrivalCount(t *testing.T) {
	s := tinySpec()
	s.Duration = 10000
	s.Traffic = []Process{{Kind: "poisson", Rate: 0.1}}
	tr, err := s.GenerateTrace()
	if err != nil {
		t.Fatal(err)
	}
	// Expect ~1000 arrivals; 3 sigma ≈ 95.
	if n := len(tr.Items); n < 800 || n > 1200 {
		t.Fatalf("poisson(0.1) over 10000s produced %d arrivals, want ~1000", n)
	}
	for i := 1; i < len(tr.Items); i++ {
		if tr.Items[i].SubmitAt < tr.Items[i-1].SubmitAt {
			t.Fatalf("trace not sorted at %d", i)
		}
	}
}

// TestArrivalMergeMatchesSort holds the merge of the processes' sorted
// arrivals to the (t, proc, idx) sort it replaced, with every process
// kind in one scenario and over seeds.
func TestArrivalMergeMatchesSort(t *testing.T) {
	s := tinySpec()
	s.Duration = 2000
	s.Traffic = []Process{
		{Kind: "poisson", Rate: 0.2},
		{Kind: "diurnal", Rate: 0.2, Amplitude: 0.5},
		{Kind: "onoff", Rate: 0.5, On: 50, Off: 100},
		{Kind: "flash", Rate: 2, At: 500, Width: 100},
		{Kind: "adversarial", Every: 300, Burst: 10},
	}
	var b traceStore
	for seed := uint64(1); seed <= 20; seed++ {
		s.Seed = seed
		if _, err := s.generateTrace(&b); err != nil {
			t.Fatal(err)
		}
		want := slices.Clone(b.all)
		slices.SortFunc(want, func(x, y arrival) int {
			return cmp.Or(cmp.Compare(x.t, y.t), cmp.Compare(x.proc, y.proc), cmp.Compare(x.idx, y.idx))
		})
		if !slices.Equal(b.all, want) {
			t.Fatalf("seed %d: merged arrivals differ from the sorted ones", seed)
		}
	}
}

func TestFlashConfinedToWindow(t *testing.T) {
	s := tinySpec()
	s.Traffic = []Process{{Kind: "flash", Rate: 2, At: 250, Width: 50}}
	tr, err := s.GenerateTrace()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Items) == 0 {
		t.Fatal("flash produced no arrivals")
	}
	for _, it := range tr.Items {
		if it.SubmitAt < 225 || it.SubmitAt > 275 {
			t.Fatalf("flash arrival at %v outside [225, 275]", it.SubmitAt)
		}
	}
}

func TestAdversarialForcesDeadlines(t *testing.T) {
	s := tinySpec()
	s.Duration = 1000
	s.Traffic = []Process{{Kind: "adversarial", Every: 300, Burst: 5}}
	tr, err := s.GenerateTrace()
	if err != nil {
		t.Fatal(err)
	}
	// Batch centers at 300, 600, 900 → 15 jobs.
	if len(tr.Items) != 15 {
		t.Fatalf("got %d jobs, want 15", len(tr.Items))
	}
	for _, it := range tr.Items {
		if it.Contract.Payoff.Zero() {
			t.Fatalf("adversarial job %s has no deadline payoff", it.ID)
		}
	}
}

// TestProcessIndependence: adding a second traffic process must not
// perturb the first one's arrivals or job shapes — the per-process RNG
// stream guarantee that makes scenarios composable.
func TestProcessIndependence(t *testing.T) {
	solo := tinySpec()
	solo.Duration = 2000
	solo.Traffic = []Process{{Kind: "poisson", Rate: 0.05}}
	both := tinySpec()
	both.Duration = 2000
	both.Traffic = []Process{
		{Kind: "poisson", Rate: 0.05},
		{Kind: "flash", Rate: 1, At: 1000, Width: 100},
	}
	trSolo, err := solo.GenerateTrace()
	if err != nil {
		t.Fatal(err)
	}
	trBoth, err := both.GenerateTrace()
	if err != nil {
		t.Fatal(err)
	}
	if len(trBoth.Items) <= len(trSolo.Items) {
		t.Fatalf("layered trace has %d jobs, solo %d: flash added nothing",
			len(trBoth.Items), len(trSolo.Items))
	}
	// Index the layered trace by (time, contract) signature.
	sig := func(at float64, c any) string {
		blob, _ := json.Marshal(c)
		return string(blob) + "@" + jsonFloat(at)
	}
	have := map[string]bool{}
	for _, it := range trBoth.Items {
		have[sig(it.SubmitAt, it.Contract)] = true
	}
	for _, it := range trSolo.Items {
		if !have[sig(it.SubmitAt, it.Contract)] {
			t.Fatalf("solo arrival at %v missing from layered trace: processes are not independent", it.SubmitAt)
		}
	}
}

func jsonFloat(f float64) string {
	blob, _ := json.Marshal(f)
	return string(blob)
}

func TestPerProcessJobOverride(t *testing.T) {
	frac := func(f float64) *float64 { return &f }
	s := tinySpec()
	s.Jobs = JobMix{DeadlineFraction: frac(0)}
	s.Traffic = []Process{
		{Kind: "poisson", Rate: 0.05},
		{Kind: "flash", Rate: 1, At: 250, Width: 50,
			Jobs: &JobMix{DeadlineFraction: frac(1), DeadlineTightness: 2}},
	}
	tr, err := s.GenerateTrace()
	if err != nil {
		t.Fatal(err)
	}
	inWindow, withDeadline := 0, 0
	for _, it := range tr.Items {
		if it.SubmitAt >= 225 && it.SubmitAt <= 275 {
			inWindow++
			if !it.Contract.Payoff.Zero() {
				withDeadline++
			}
		} else if !it.Contract.Payoff.Zero() {
			t.Fatalf("background job at %v has a deadline despite DeadlineFraction=0", it.SubmitAt)
		}
	}
	// Poisson background may land inside the window too; the flash jobs
	// (deadline-bearing) must dominate it.
	if withDeadline == 0 || withDeadline < inWindow/2 {
		t.Fatalf("flash override produced %d deadline jobs of %d in window", withDeadline, inWindow)
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	const base = `{"name":"x","seed":1,"duration":10,"topology":{"count":1},"traffic":[{"kind":"poisson","rate":1}]`
	for _, tc := range []struct{ field, blob string }{
		{"typo_field", base + `,"typo_field":true}`},
		// The Central Server has no admission control: a spec that still
		// sets its budget must fail by name, not run without it.
		{"max_inflight", base + `,"grid":{"max_inflight":256}}`},
	} {
		path := t.TempDir() + "/bad.json"
		if err := os.WriteFile(path, []byte(tc.blob), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Fatalf("Load of a spec with %q = %v, want an error naming it", tc.field, err)
		}
	}
}
