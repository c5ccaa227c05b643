// Command bench is the repository's benchmark: it boots the real TCP grid
// in-process, drives one of five named workloads against it from this one
// process, prints every metric by name with its unit, verifies the
// outputs, and ends with one JSON object on the last line of standard
// output. BENCHMARK.json at the repository root names the command, the
// workloads and the bound metrics; README.md in this directory says what
// each one is for and what it should move.
//
//	go run ./bench                                  all five workloads, untraced
//	go run ./bench -workload trip-steady -seed 7    one workload
//	go run ./bench -trace 1 -out result.json        add the traced window, the probes and the span files
//	go run ./bench -compare a.json b.json           table of two results; exit 1 outside a bound
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"time"
)

// defaultScratch holds everything a run writes: Central Server and daemon
// state directories (removed at exit) and the traced runs' span files. It
// is relative, so it lands inside the checkout the bench is run from.
const defaultScratch = ".bench_run"

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run (default: all five): trip-steady, trip-sharded, auction-wide, settle-fleet, sim-sweep")
	seed := fs.Int64("seed", 1, "seed for job shapes, user assignment and due-times")
	seconds := fs.Float64("seconds", runSeconds, "length of the measured window, in seconds")
	trace := fs.Int("trace", 0, "1 = after the untraced window, repeat it with span recording on, then run the per-layer probes")
	out := fs.String("out", "", "write the full result as JSON to this file")
	scratch := fs.String("scratch", defaultScratch, "directory for state directories (removed at exit) and span files")
	compare := fs.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	manifest := fs.Bool("manifest", false, "print BENCHMARK.json as this bench defines it, and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *manifest {
		return printManifest(stdout)
	}
	if *compare {
		if fs.NArg() != 2 {
			logf("-compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout)
	}
	if *seconds <= 0 || fs.NArg() != 0 {
		logf("usage: bench [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-out file]")
		return 2
	}
	todo := workloads
	if *workload != "" {
		w := findWorkload(*workload)
		if w == nil {
			logf("unknown workload %q", *workload)
			return 2
		}
		todo = []workloadDef{*w}
	}

	// The components log refused bids and outbox events; none of it is
	// the benchmark's output.
	log.SetOutput(io.Discard)

	dir := filepath.Join(*scratch, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		logf("scratch directory: %v", err)
		return 1
	}
	defer os.RemoveAll(dir)

	file := newFileResult(*trace == 1)
	ok := true
	for _, w := range todo {
		cfg := &runCfg{seed: *seed, seconds: *seconds, trace: *trace == 1,
			dir: filepath.Join(dir, w.Name), spanDir: *scratch}
		start := time.Now()
		res, err := w.run(cfg)
		if err != nil {
			logf("%s: %v", w.Name, err)
			return 1
		}
		logf("%s done in %s", w.Name, time.Since(start).Round(10*time.Millisecond))
		res.print(stdout)
		file.Workloads = append(file.Workloads, res)
		ok = ok && res.Correct
	}
	if *out != "" {
		if err := file.write(*out); err != nil {
			logf("write %s: %v", *out, err)
			return 1
		}
	}
	line, err := driverLine(file.Workloads, *trace == 1)
	if err != nil {
		logf("result line: %v", err)
		return 1
	}
	fmt.Fprintf(stdout, "\n%s\n", line)
	if !ok {
		logf("verification failed")
		return 1
	}
	return 0
}
