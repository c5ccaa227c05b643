package experiments

import (
	"path/filepath"
	"strings"
	"testing"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: faucets
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkRPCDialPerCall-8        	   16970	     70443 ns/op	    4377 B/op	      85 allocs/op
BenchmarkRPCPooled-8             	   49632	     24246 ns/op	    3146 B/op	      59 allocs/op
BenchmarkRPCDialPerCall-8        	   17101	     69120 ns/op	    4378 B/op	      85 allocs/op
BenchmarkRPCPooled-8             	   48110	     25101 ns/op	    3147 B/op	      59 allocs/op
BenchmarkGridSustainedAuctions-8 	    6640	    186427 ns/op	      5364 auctions/s	   23730 B/op	     421 allocs/op
some stray log line
PASS
ok  	faucets	12.515s
`

func TestParseBenchFoldsBestOf(t *testing.T) {
	rep, err := ParseBench(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %+v", len(rep.Results), rep.Results)
	}
	dial := rep.Results["BenchmarkRPCDialPerCall"]
	if dial.NsPerOp != 69120 {
		t.Fatalf("best-of ns/op = %v, want the minimum 69120", dial.NsPerOp)
	}
	if dial.Runs != 2 {
		t.Fatalf("runs = %d, want 2", dial.Runs)
	}
	if dial.AllocsPerOp != 85 {
		t.Fatalf("allocs/op = %v, want 85", dial.AllocsPerOp)
	}
	// The -8 GOMAXPROCS suffix must be stripped from keys.
	if _, ok := rep.Results["BenchmarkRPCPooled-8"]; ok {
		t.Fatal("cpu suffix not stripped")
	}
	// Custom ReportMetric units are tolerated, standard ones kept.
	auctions := rep.Results["BenchmarkGridSustainedAuctions"]
	if auctions.NsPerOp != 186427 || auctions.BytesPerOp != 23730 {
		t.Fatalf("auctions = %+v", auctions)
	}
}

func TestCompareBenchGate(t *testing.T) {
	baseline := &BenchReport{Results: map[string]BenchResult{
		"BenchmarkGridSustainedAuctions": {Name: "BenchmarkGridSustainedAuctions", NsPerOp: 100000},
	}}
	within := &BenchReport{Results: map[string]BenchResult{
		"BenchmarkGridSustainedAuctions": {Name: "BenchmarkGridSustainedAuctions", NsPerOp: 114000},
	}}
	if err := CompareBench(baseline, within, "BenchmarkGridSustainedAuctions", 0.15); err != nil {
		t.Fatalf("+14%% flagged as regression: %v", err)
	}
	regressed := &BenchReport{Results: map[string]BenchResult{
		"BenchmarkGridSustainedAuctions": {Name: "BenchmarkGridSustainedAuctions", NsPerOp: 120000},
	}}
	if err := CompareBench(baseline, regressed, "BenchmarkGridSustainedAuctions", 0.15); err == nil {
		t.Fatal("+20% not flagged as regression")
	}
	// Faster is always fine.
	improved := &BenchReport{Results: map[string]BenchResult{
		"BenchmarkGridSustainedAuctions": {Name: "BenchmarkGridSustainedAuctions", NsPerOp: 50000},
	}}
	if err := CompareBench(baseline, improved, "BenchmarkGridSustainedAuctions", 0.15); err != nil {
		t.Fatalf("improvement flagged: %v", err)
	}
	// A missing benchmark must fail loudly, not skip the gate.
	if err := CompareBench(baseline, &BenchReport{Results: map[string]BenchResult{}}, "BenchmarkGridSustainedAuctions", 0.15); err == nil {
		t.Fatal("missing current benchmark not flagged")
	}
	if err := CompareBench(&BenchReport{Results: map[string]BenchResult{}}, within, "BenchmarkGridSustainedAuctions", 0.15); err == nil {
		t.Fatal("missing baseline benchmark not flagged")
	}
}

func TestCheckScalingGate(t *testing.T) {
	rep := &BenchReport{Results: map[string]BenchResult{
		"BenchmarkShardedSettleThroughput/shards_1": {NsPerOp: 500000},
		"BenchmarkShardedSettleThroughput/shards_4": {NsPerOp: 160000},
		"BenchmarkBroken": {NsPerOp: 0},
	}}
	fast, slow := "BenchmarkShardedSettleThroughput/shards_4", "BenchmarkShardedSettleThroughput/shards_1"
	if err := CheckScaling(rep, fast, slow, 2.5); err != nil {
		t.Fatalf("3.1x rejected by a 2.5x floor: %v", err)
	}
	if err := CheckScaling(rep, fast, slow, 3.5); err == nil {
		t.Fatal("3.1x passed a 3.5x floor")
	}
	// A missing or degenerate benchmark must fail loudly, not skip.
	if err := CheckScaling(rep, "BenchmarkNoSuch", slow, 2.5); err == nil {
		t.Fatal("missing fast benchmark not flagged")
	}
	if err := CheckScaling(rep, fast, "BenchmarkNoSuch", 2.5); err == nil {
		t.Fatal("missing slow benchmark not flagged")
	}
	if err := CheckScaling(rep, "BenchmarkBroken", slow, 2.5); err == nil {
		t.Fatal("zero ns/op fast benchmark not flagged")
	}
}

func TestBenchReportRoundTrip(t *testing.T) {
	rep, err := ParseBench(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	rep.SHA = "deadbeef"
	path := filepath.Join(t.TempDir(), "BENCH_deadbeef.json")
	if err := rep.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadBenchReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.SHA != "deadbeef" || len(back.Results) != len(rep.Results) {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if back.Results["BenchmarkRPCPooled"].NsPerOp != rep.Results["BenchmarkRPCPooled"].NsPerOp {
		t.Fatal("round trip changed ns/op")
	}
}

func TestCheckAllocsGate(t *testing.T) {
	rep := &BenchReport{Results: map[string]BenchResult{
		"BenchmarkSolicitEncodeBinary": {Name: "BenchmarkSolicitEncodeBinary", NsPerOp: 90, AllocsPerOp: 1},
		"BenchmarkSolicitEncodeJSON":   {Name: "BenchmarkSolicitEncodeJSON", NsPerOp: 1500, AllocsPerOp: 12},
	}}
	if err := CheckAllocs(rep, "BenchmarkSolicitEncodeBinary", 8); err != nil {
		t.Fatalf("within budget rejected: %v", err)
	}
	if err := CheckAllocs(rep, "BenchmarkSolicitEncodeBinary", 1); err != nil {
		t.Fatalf("exactly at budget rejected: %v", err)
	}
	if err := CheckAllocs(rep, "BenchmarkSolicitEncodeJSON", 8); err == nil {
		t.Fatal("over-budget benchmark passed the allocs gate")
	}
	// A missing benchmark must fail loudly, not skip the gate.
	if err := CheckAllocs(rep, "BenchmarkNoSuch", 8); err == nil {
		t.Fatal("missing benchmark not flagged")
	}
}
