package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func findMetric(name string) *metricDef {
	for i := range endToEnd {
		if endToEnd[i].Name == name {
			return &endToEnd[i]
		}
	}
	return nil
}

func fakeResult(workload string, vals map[string]float64) *result {
	r := newFileResult(false)
	w := &workloadResult{Workload: workload, Correct: true, EndToEnd: map[string]metric{}}
	w.setEndToEnd(workload, vals)
	r.Workloads = append(r.Workloads, w)
	return r
}

func TestJudgeDirectionAndBound(t *testing.T) {
	lower := *findMetric("trip_p50_ms") // lower is better, 25%
	higher := *findMetric("jobs_per_s") // higher is better, 25%
	cases := []struct {
		m          metricDef
		base, cand float64
		regressed  bool
	}{
		{lower, 5.0, 6.0, false},  // 20% slower: inside 25%
		{lower, 5.0, 6.5, true},   // 30% slower
		{lower, 5.0, 2.0, false},  // faster is never a regression
		{higher, 300, 240, false}, // 20% fewer: inside 25%
		{higher, 300, 210, true},  // 30% fewer
		{higher, 300, 900, false},
	}
	for _, c := range cases {
		if got := judge(c.m, wTripSteady, c.base, c.cand).regressed(); got != c.regressed {
			t.Errorf("%s %v -> %v: regressed=%v, want %v", c.m.Name, c.base, c.cand, got, c.regressed)
		}
	}
}

func TestJudgeAbsoluteSlack(t *testing.T) {
	fail := *findMetric("fail_ratio") // no relative bound, +0.001 absolute
	if judge(fail, wTripSteady, 0, 0.0005).regressed() {
		t.Error("fail_ratio 0 -> 0.0005 is inside the 0.001 slack")
	}
	if !judge(fail, wTripSteady, 0, 0.002).regressed() {
		t.Error("fail_ratio 0 -> 0.002 is outside the 0.001 slack")
	}
	ready := *findMetric("ready_s") // 25% or 0.05 s, whichever is larger
	if judge(ready, wTripSteady, 0.006, 0.040).regressed() {
		t.Error("ready_s 6 ms -> 40 ms is inside the 0.05 s slack")
	}
	if !judge(ready, wTripSharded, 0.5, 0.7).regressed() {
		t.Error("ready_s 0.5 s -> 0.7 s is 40% worse and more than 0.05 s")
	}
	exact := *findMetric("utilization")
	if !judge(exact, wSimSweep, 0.2041, 0.2040).regressed() {
		t.Error("utilization is exact per seed: any drop is a regression")
	}
}

func TestCompareResultsSkipsWhatOneSideLacks(t *testing.T) {
	base := fakeResult(wAuctionWide, map[string]float64{"ttc_p50_ms": 0.5, "jobs_per_s": 2700, "trip_p50_ms": 9})
	cand := fakeResult(wAuctionWide, map[string]float64{"ttc_p50_ms": 0.8, "jobs_per_s": 2700})
	rows := compareResults(base, cand)
	// trip_p50_ms is not defined on auction-wide, so setEndToEnd dropped it.
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2: %+v", len(rows), rows)
	}
	for _, v := range rows {
		if want := v.Metric == "ttc_p50_ms"; v.regressed() != want {
			t.Errorf("%s regressed=%v, want %v", v.Metric, v.regressed(), want)
		}
	}
	if rows := compareResults(base, fakeResult(wSimSweep, map[string]float64{"jobs_per_s": 1})); len(rows) != 0 {
		t.Errorf("results with no workload in common compared to %d rows", len(rows))
	}
}

func TestCompareFilesExitCode(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, r *result) string {
		path := filepath.Join(dir, name)
		if err := r.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	vals := map[string]float64{"jobs_per_s": 300, "trip_p50_ms": 5, "trip_p90_ms": 8, "cpu_ms_per_job": 0.9}
	a := write("a.json", fakeResult(wTripSteady, vals))
	same := write("same.json", fakeResult(wTripSteady, vals))
	slow := map[string]float64{"jobs_per_s": 300, "trip_p50_ms": 7, "trip_p90_ms": 8, "cpu_ms_per_job": 0.9}
	b := write("b.json", fakeResult(wTripSteady, slow))

	var out bytes.Buffer
	if code := compareFiles(a, same, &out); code != 0 {
		t.Errorf("identical results: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(a, b, &out); code != 1 {
		t.Errorf("40%% slower trip_p50_ms: exit %d, want 1\n%s", code, out.String())
	}
	table := out.String()
	for _, want := range []string{"trip-steady", "trip_p50_ms", "5.0000", "7.0000", "1.400", "25.0%", "REGRESSED"} {
		if !strings.Contains(table, want) {
			t.Errorf("table lacks %q:\n%s", want, table)
		}
	}
	if strings.Count(table, "REGRESSED") != 1 {
		t.Errorf("exactly one metric regressed:\n%s", table)
	}

	broken := fakeResult(wTripSteady, vals)
	broken.Workloads[0].Correct = false
	if code := compareFiles(a, write("broken.json", broken), &out); code != 1 {
		t.Errorf("a result that failed verification compared with exit %d, want 1", code)
	}
	if code := compareFiles(a, filepath.Join(dir, "missing.json"), &out); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
}
