package scenario

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestSummarize(t *testing.T) {
	if q := Summarize(nil); q.N != 0 || q.P99 != 0 {
		t.Fatalf("empty sample: %+v", q)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	q := Summarize(xs)
	if q.N != 100 || q.P50 != 50 || q.P95 != 95 || q.P99 != 99 || q.Max != 100 {
		t.Fatalf("quantiles over 1..100: %+v", q)
	}
	// Input must not be mutated (Summarize sorts a copy).
	if xs[0] != 1 {
		t.Fatal("Summarize mutated its input")
	}
}

func baseReport() *ScenarioReport {
	return &ScenarioReport{
		Scenario: "s", Backend: "grid",
		Submitted: 100, Placed: 95,
		TTC:              Quantiles{N: 95, P99: 100},
		DeadlineMissRate: 0.10,
	}
}

func TestCompareGate(t *testing.T) {
	opts := GateOpts{TTCTolerance: 1.0, MissRateSlack: 0.05}

	ok := baseReport()
	ok.TTC.P99 = 150 // within 2x
	ok.DeadlineMissRate = 0.12
	if err := Compare(baseReport(), ok, opts); err != nil {
		t.Fatalf("in-tolerance run failed the gate: %v", err)
	}

	slow := baseReport()
	slow.TTC.P99 = 250
	if err := Compare(baseReport(), slow, opts); !errors.Is(err, ErrGateTTC) {
		t.Fatalf("want ErrGateTTC, got %v", err)
	}

	missy := baseReport()
	missy.DeadlineMissRate = 0.20
	if err := Compare(baseReport(), missy, opts); !errors.Is(err, ErrGateMissRate) {
		t.Fatalf("want ErrGateMissRate, got %v", err)
	}

	other := baseReport()
	other.Backend = "gridsim"
	if err := Compare(baseReport(), other, opts); !errors.Is(err, ErrGateMismatch) {
		t.Fatalf("want ErrGateMismatch, got %v", err)
	}
	if err := Compare(nil, baseReport(), opts); !errors.Is(err, ErrGateMismatch) {
		t.Fatalf("nil baseline must fail, got %v", err)
	}
}

func TestCheckSLO(t *testing.T) {
	f := func(v float64) *float64 { return &v }
	r := baseReport()
	if err := r.CheckSLO(nil); err != nil {
		t.Fatalf("nil SLO: %v", err)
	}
	if err := r.CheckSLO(&SLO{MaxDeadlineMissRate: f(0.2), MaxTTCp99Ms: f(200), MinPlacedFraction: f(0.9)}); err != nil {
		t.Fatalf("satisfied SLO failed: %v", err)
	}
	for name, slo := range map[string]*SLO{
		"miss rate": {MaxDeadlineMissRate: f(0.05)},
		"ttc":       {MaxTTCp99Ms: f(50)},
		"placed":    {MinPlacedFraction: f(0.99)},
	} {
		if err := r.CheckSLO(slo); !errors.Is(err, ErrSLO) {
			t.Errorf("%s: want ErrSLO, got %v", name, err)
		}
	}
}

func TestReportRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	r := baseReport()
	r.Counters = map[string]float64{"central.jobs_settled": 95}
	r.OpenLoop = &OpenLoopStats{ScheduledJobsPerSec: 10, AchievedJobsPerSec: 9.9, RateError: -0.01}
	if err := r.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := new(ScenarioReport)
	if err := json.Unmarshal(blob, got); err != nil {
		t.Fatal(err)
	}
	if got.Scenario != r.Scenario || got.TTC != r.TTC ||
		got.Counters["central.jobs_settled"] != 95 ||
		got.OpenLoop == nil || got.OpenLoop.RateError != -0.01 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}
