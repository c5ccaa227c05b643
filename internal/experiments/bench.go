package experiments

// Benchmark-output parsing and regression comparison for the CI bench
// gate (cmd/benchgate). The bench job runs `go test -bench . -benchmem
// -count=3`, this parser folds the repeated runs into a best-of record
// per benchmark, and the gate compares one guarded benchmark against
// the committed BENCH_BASELINE.json.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// BenchResult is one benchmark's folded measurements across repeated
// runs: ns/op keeps the minimum (best-of — the least noisy estimate of
// the code's true cost on a shared CI runner), allocation stats keep
// the last value seen (they are deterministic per build).
type BenchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Runs counts how many -count repetitions were folded in.
	Runs int `json:"runs"`
}

// BenchReport is the artifact the CI bench job uploads as
// BENCH_<sha>.json and commits as BENCH_BASELINE.json.
type BenchReport struct {
	// SHA is the commit the numbers were measured at.
	SHA string `json:"sha,omitempty"`
	// Results is keyed by benchmark name with the -cpu suffix stripped
	// (BenchmarkRPCPooled, not BenchmarkRPCPooled-8).
	Results map[string]BenchResult `json:"results"`
}

// ParseBench reads `go test -bench` output and folds result lines into
// a report. Lines that are not benchmark results (logs, PASS, ok) are
// ignored.
func ParseBench(r io.Reader) (*BenchReport, error) {
	rep := &BenchReport{Results: map[string]BenchResult{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		res, ok := parseBenchLine(sc.Text())
		if !ok {
			continue
		}
		prev, seen := rep.Results[res.Name]
		if !seen {
			res.Runs = 1
			rep.Results[res.Name] = res
			continue
		}
		if res.NsPerOp < prev.NsPerOp {
			prev.NsPerOp = res.NsPerOp
		}
		if res.BytesPerOp != 0 {
			prev.BytesPerOp = res.BytesPerOp
		}
		if res.AllocsPerOp != 0 {
			prev.AllocsPerOp = res.AllocsPerOp
		}
		prev.Runs++
		rep.Results[res.Name] = prev
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("experiments: scan bench output: %w", err)
	}
	return rep, nil
}

// parseBenchLine parses one result line of the form
//
//	BenchmarkName-8   100   1234 ns/op   56 B/op   7 allocs/op   9.9 extra/unit
//
// Custom b.ReportMetric units are ignored; only the three standard
// measurements are kept.
func parseBenchLine(line string) (BenchResult, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return BenchResult{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		// Strip the GOMAXPROCS suffix if it is numeric.
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	if _, err := strconv.Atoi(fields[1]); err != nil {
		return BenchResult{}, false // iteration count must be an integer
	}
	res := BenchResult{Name: name}
	// The rest is value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return BenchResult{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			res.NsPerOp = v
		case "B/op":
			res.BytesPerOp = v
		case "allocs/op":
			res.AllocsPerOp = v
		}
	}
	if res.NsPerOp == 0 {
		return BenchResult{}, false
	}
	return res, true
}

// WriteJSON writes the report, pretty-printed for diffable baselines.
func (r *BenchReport) WriteJSON(path string) error {
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// LoadBenchReport reads a BENCH_*.json file.
func LoadBenchReport(path string) (*BenchReport, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep BenchReport
	if err := json.Unmarshal(blob, &rep); err != nil {
		return nil, fmt.Errorf("experiments: parse %s: %w", path, err)
	}
	return &rep, nil
}

// CheckAllocs gates a benchmark's allocations per op against an
// absolute ceiling. Unlike the ns/op gate it compares against a fixed
// budget, not the baseline: allocation counts are deterministic per
// build, so any growth is a real code change, and a hot path promised
// to be (near) zero-alloc should fail CI the moment it stops being so.
func CheckAllocs(current *BenchReport, name string, maxAllocs float64) error {
	cur, ok := current.Results[name]
	if !ok {
		return fmt.Errorf("experiments: %s missing from current run", name)
	}
	if cur.AllocsPerOp > maxAllocs {
		return fmt.Errorf("experiments: %s allocates %.0f/op, budget is %.0f/op",
			name, cur.AllocsPerOp, maxAllocs)
	}
	return nil
}

// CompareBench checks one guarded benchmark in current against
// baseline: it fails when current ns/op exceeds baseline ns/op by more
// than tolerance (0.15 = +15%). A benchmark missing from either report
// is an error — silently skipping the gate would defeat it.
func CompareBench(baseline, current *BenchReport, name string, tolerance float64) error {
	base, ok := baseline.Results[name]
	if !ok {
		return fmt.Errorf("experiments: %s missing from baseline", name)
	}
	cur, ok := current.Results[name]
	if !ok {
		return fmt.Errorf("experiments: %s missing from current run", name)
	}
	limit := base.NsPerOp * (1 + tolerance)
	if cur.NsPerOp > limit {
		return fmt.Errorf("experiments: %s regressed: %.0f ns/op vs baseline %.0f ns/op (limit %.0f, +%.0f%%)",
			name, cur.NsPerOp, base.NsPerOp, limit, (cur.NsPerOp/base.NsPerOp-1)*100)
	}
	return nil
}
