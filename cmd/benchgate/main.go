// Command benchgate turns raw `go test -bench` output into the CI
// benchmark artifact and enforces the regression gate:
//
//	go test -bench . -benchmem -count=3 -run '^$' | tee bench.txt
//	benchgate -in bench.txt -sha "$GITHUB_SHA" -out "BENCH_$GITHUB_SHA.json" \
//	          -baseline BENCH_BASELINE.json \
//	          -gate 'BenchmarkGridSustainedAuctions,BenchmarkWALGroupCommit=0.6' \
//	          -tolerance 0.15
//
// Repeated -count runs are folded best-of (minimum ns/op), which is the
// stable statistic on noisy shared runners. -gate takes a
// comma-separated list of benchmark names, each optionally carrying its
// own tolerance as name=tolerance (fsync- or network-bound benchmarks
// need looser bounds than CPU-bound ones); names without one use
// -tolerance. The gate fails (exit 1) when any guarded benchmark's
// ns/op exceeds the committed baseline by more than its tolerance. With
// -baseline "" only the artifact is written — used to mint a new
// BENCH_BASELINE.json.
//
// -allocs gates allocation counts against absolute ceilings rather than
// the baseline: 'BenchmarkSolicitEncodeBinary=8' fails the build when
// the named benchmark reports more than 8 allocs/op. Allocation counts
// are deterministic per build, so unlike ns/op the ceilings need no
// tolerance and are checked even when -baseline is empty.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"

	"faucets/internal/experiments"
)

func main() {
	in := flag.String("in", "", "bench output file (empty = stdin)")
	out := flag.String("out", "", "write the parsed report to this JSON file")
	sha := flag.String("sha", "", "commit SHA recorded in the report")
	baseline := flag.String("baseline", "", "baseline JSON to gate against (empty = no gate)")
	gate := flag.String("gate", "BenchmarkGridSustainedAuctions", "comma-separated benchmark names the gate guards, each optionally name=tolerance")
	tolerance := flag.Float64("tolerance", 0.15, "default allowed ns/op growth over baseline (0.15 = +15%)")
	allocs := flag.String("allocs", "", "comma-separated name=N absolute allocs/op ceilings (checked even without -baseline)")
	flag.Parse()

	var src io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			log.Fatalf("benchgate: %v", err)
		}
		defer f.Close()
		src = f
	}
	rep, err := experiments.ParseBench(src)
	if err != nil {
		log.Fatalf("benchgate: %v", err)
	}
	rep.SHA = *sha
	if len(rep.Results) == 0 {
		log.Fatal("benchgate: no benchmark results in input")
	}

	names := make([]string, 0, len(rep.Results))
	for name := range rep.Results {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := rep.Results[name]
		fmt.Printf("%-44s %12.0f ns/op  (%d runs)\n", name, r.NsPerOp, r.Runs)
	}

	if *out != "" {
		if err := rep.WriteJSON(*out); err != nil {
			log.Fatalf("benchgate: %v", err)
		}
		fmt.Printf("wrote %s (%d benchmarks)\n", *out, len(rep.Results))
	}

	for _, a := range strings.Split(*allocs, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		i := strings.IndexByte(a, '=')
		if i < 0 {
			log.Fatalf("benchgate: -allocs entry %q must be name=N", a)
		}
		name := a[:i]
		max, err := strconv.ParseFloat(a[i+1:], 64)
		if err != nil {
			log.Fatalf("benchgate: bad allocs ceiling %q: %v", a, err)
		}
		if err := experiments.CheckAllocs(rep, name, max); err != nil {
			log.Fatalf("benchgate: GATE FAILED: %v", err)
		}
		fmt.Printf("gate OK: %s %.0f allocs/op (budget %.0f)\n",
			name, rep.Results[name].AllocsPerOp, max)
	}

	if *baseline == "" {
		return
	}
	base, err := experiments.LoadBenchReport(*baseline)
	if err != nil {
		log.Fatalf("benchgate: %v", err)
	}
	for _, g := range strings.Split(*gate, ",") {
		g = strings.TrimSpace(g)
		if g == "" {
			continue
		}
		name, tol := g, *tolerance
		if i := strings.IndexByte(g, '='); i >= 0 {
			name = g[:i]
			t, err := strconv.ParseFloat(g[i+1:], 64)
			if err != nil {
				log.Fatalf("benchgate: bad gate tolerance %q: %v", g, err)
			}
			tol = t
		}
		if err := experiments.CompareBench(base, rep, name, tol); err != nil {
			log.Fatalf("benchgate: GATE FAILED: %v", err)
		}
		cur, basev := rep.Results[name], base.Results[name]
		fmt.Printf("gate OK: %s %.0f ns/op vs baseline %.0f ns/op (%+.1f%%, limit +%.0f%%)\n",
			name, cur.NsPerOp, basev.NsPerOp, (cur.NsPerOp/basev.NsPerOp-1)*100, tol*100)
	}
}
