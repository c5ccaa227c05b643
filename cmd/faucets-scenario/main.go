// Command faucets-scenario executes a declarative workload scenario
// (internal/scenario) against either the discrete-event simulator or a
// live loopback TCP grid, prints a human summary, and optionally writes
// the machine-readable ScenarioReport JSON and gates it against a
// committed baseline — the scenario-level counterpart of benchgate.
//
// Usage:
//
//	faucets-scenario -scenario examples/scenarios/flash-crowd.json
//	faucets-scenario -scenario examples/scenarios/flash-crowd.json -backend grid
//	faucets-scenario -scenario examples/scenarios/sustained-soak.json \
//	    -backend grid -out report.json -baseline SCENARIO_BASELINE.json
//	faucets-scenario -scenario examples/scenarios/flash-crowd.json \
//	    -mechanisms all -compare-out mechanisms.txt
//
// The -mechanisms flag is the head-to-head matrix mode: the same trace
// runs once per market mechanism (first-price, posted-price, vickrey)
// and a comparison table of placements, revenue, utilization, and
// deadline-miss rate is printed (and written to -compare-out). The
// baseline file is a keyed set of reports
// ({"reports": {"<scenario>/<backend>/<mechanism>": ...}}); each run
// gates only against its own entry. -exact additionally
// requires the run to reproduce its baseline entry byte-for-byte — the
// gridsim determinism gate CI pins first-price with.
//
// Exit status is non-zero when the run fails, the baseline gate trips,
// or the scenario's SLO block is violated.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"faucets/internal/qos"
	"faucets/internal/scenario"
)

func main() {
	var (
		path       = flag.String("scenario", "", "scenario spec JSON (required)")
		backend    = flag.String("backend", "gridsim", "executor: gridsim, grid, or both")
		out        = flag.String("out", "", "write the ScenarioReport JSON here (with multiple backends or mechanisms, their names are inserted before the extension)")
		baseline   = flag.String("baseline", "", "gate against this committed baseline (single report or keyed set)")
		ttcTol     = flag.Float64("ttc-tolerance", 1.0, "allowed relative p99 time-to-contract increase over baseline (1.0 = 2x)")
		missSlack  = flag.Float64("miss-slack", 0.05, "allowed absolute deadline-miss-rate increase over baseline")
		seed       = flag.Uint64("seed", 0, "override the scenario seed (0 keeps the spec's)")
		duration   = flag.Float64("duration", 0, "override the scenario duration in virtual seconds (0 keeps the spec's)")
		mechanism  = flag.String("mechanism", "", "override the scenario's market mechanism: first-price, posted-price, or vickrey")
		mechanisms = flag.String("mechanisms", "", "matrix mode: comma-separated mechanism list, or \"all\" — run once per mechanism and print a head-to-head table")
		compareOut = flag.String("compare-out", "", "write the mechanism comparison table here (matrix mode)")
		exact      = flag.Bool("exact", false, "require each report to be byte-identical to its baseline entry (gridsim determinism gate)")
		updateBase = flag.String("update-baseline", "", "write the run's report(s) into this baseline set file (created if missing)")
	)
	flag.Parse()
	if *path == "" {
		fmt.Fprintln(os.Stderr, "faucets-scenario: -scenario is required")
		flag.Usage()
		os.Exit(2)
	}
	spec, err := scenario.Load(*path)
	if err != nil {
		fatal(err)
	}
	if *seed != 0 {
		spec.Seed = *seed
	}
	if *duration != 0 {
		spec.Duration = *duration
	}

	var backends []string
	switch *backend {
	case "gridsim", "grid":
		backends = []string{*backend}
	case "both":
		backends = []string{"gridsim", "grid"}
	default:
		fatal(fmt.Errorf("unknown backend %q (want gridsim, grid, or both)", *backend))
	}
	mechList, err := mechanismList(*mechanism, *mechanisms, spec.Mechanism)
	if err != nil {
		fatal(err)
	}

	var baseSet *scenario.BaselineSet
	if *baseline != "" {
		if baseSet, err = scenario.LoadBaselineSet(*baseline); err != nil {
			fatal(err)
		}
	}

	failed := false
	matrix := map[string][]*scenario.ScenarioReport{} // backend -> per-mechanism reports
	for _, b := range backends {
		for _, m := range mechList {
			spec.Mechanism = m
			var rep *scenario.ScenarioReport
			var err error
			switch b {
			case "gridsim":
				rep, err = scenario.RunSim(spec)
			case "grid":
				rep, err = scenario.RunGrid(spec)
			}
			if err != nil {
				fatal(err)
			}
			summarize(rep)
			matrix[b] = append(matrix[b], rep)
			if *out != "" {
				dest := *out
				ext := filepath.Ext(dest)
				stem := strings.TrimSuffix(dest, ext)
				if len(backends) > 1 {
					stem += "." + b
				}
				if len(mechList) > 1 {
					stem += "." + rep.Mechanism
				}
				dest = stem + ext
				if err := rep.WriteJSON(dest); err != nil {
					fatal(err)
				}
				fmt.Printf("report written to %s\n", dest)
			}
			if err := rep.CheckSLO(spec.SLO); err != nil {
				fmt.Fprintf(os.Stderr, "faucets-scenario: %v\n", err)
				failed = true
			}
			if baseSet != nil {
				// Only a baseline pinned for this exact
				// scenario/backend/mechanism triple gates the run; a
				// gridsim dry run is never judged against a grid
				// baseline (different units), nor vickrey against
				// first-price economics.
				base := baseSet.Lookup(rep.Scenario, rep.Backend, rep.Mechanism)
				if base == nil {
					continue
				}
				gate := scenario.GateOpts{TTCTolerance: *ttcTol, MissRateSlack: *missSlack}
				if err := scenario.Compare(base, rep, gate); err != nil {
					fmt.Fprintf(os.Stderr, "faucets-scenario: gate: %v\n", err)
					failed = true
					continue
				}
				if *exact && !sameReport(base, rep) {
					fmt.Fprintf(os.Stderr, "faucets-scenario: gate: %s/%s/%s report is not byte-identical to baseline %s\n",
						rep.Scenario, rep.Backend, rep.Mechanism, *baseline)
					failed = true
					continue
				}
				fmt.Printf("gate: ok vs %s (p99 TTC %.3f <= %.3f x %.2f; miss rate %.4f <= %.4f + %.2f)\n",
					*baseline, rep.TTC.P99, base.TTC.P99, 1+*ttcTol,
					rep.DeadlineMissRate, base.DeadlineMissRate, *missSlack)
			}
		}
	}

	if *updateBase != "" {
		set := &scenario.BaselineSet{}
		if _, err := os.Stat(*updateBase); err == nil {
			if set, err = scenario.LoadBaselineSet(*updateBase); err != nil {
				fatal(err)
			}
		}
		for _, reps := range matrix {
			for _, rep := range reps {
				set.Put(rep)
			}
		}
		if err := set.WriteJSON(*updateBase); err != nil {
			fatal(err)
		}
		fmt.Printf("baseline set %s updated\n", *updateBase)
	}

	if len(mechList) > 1 {
		var table strings.Builder
		for _, b := range backends {
			fmt.Fprintf(&table, "mechanism matrix: %s [%s] seed=%d\n", spec.Name, b, spec.Seed)
			table.WriteString(scenario.FormatComparison(matrix[b]))
		}
		fmt.Print(table.String())
		if *compareOut != "" {
			if err := os.WriteFile(*compareOut, []byte(table.String()), 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("comparison written to %s\n", *compareOut)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// mechanismList resolves the -mechanism/-mechanisms flags into the runs
// to make. With neither flag the spec's own mechanism (possibly empty =
// first-price) runs once.
func mechanismList(single, list, specDefault string) ([]string, error) {
	if single != "" && list != "" {
		return nil, fmt.Errorf("-mechanism and -mechanisms are mutually exclusive")
	}
	switch {
	case list == "all":
		return []string{qos.MechanismFirstPrice, qos.MechanismPostedPrice, qos.MechanismVickrey}, nil
	case list != "":
		var out []string
		for _, m := range strings.Split(list, ",") {
			m = strings.TrimSpace(m)
			if m == "" || !qos.ValidMechanism(m) {
				return nil, fmt.Errorf("-mechanisms: unknown mechanism %q", m)
			}
			out = append(out, m)
		}
		return out, nil
	case single != "":
		if !qos.ValidMechanism(single) {
			return nil, fmt.Errorf("-mechanism: unknown mechanism %q", single)
		}
		return []string{single}, nil
	}
	return []string{specDefault}, nil
}

// sameReport is the determinism gate: both reports marshal to identical
// JSON. Loading the baseline through the struct first makes the check
// formatting-independent without weakening it — every field compares.
func sameReport(a, b *scenario.ScenarioReport) bool {
	ab, err1 := json.Marshal(a)
	bb, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && bytes.Equal(ab, bb)
}

func summarize(r *scenario.ScenarioReport) {
	unit := "virtual s"
	if r.Backend == "grid" {
		unit = "wall ms"
	}
	fmt.Printf("scenario %s [%s/%s] seed=%d servers=%d\n", r.Scenario, r.Backend, r.Mechanism, r.Seed, r.Servers)
	fmt.Printf("  jobs %d submitted %d placed %d rejected %d shed %d finished %d settled %d\n",
		r.Jobs, r.Submitted, r.Placed, r.Rejected, r.Shed, r.Finished, r.Settled)
	fmt.Printf("  ttc (%s)        p50=%.3f p95=%.3f p99=%.3f max=%.3f n=%d\n",
		unit, r.TTC.P50, r.TTC.P95, r.TTC.P99, r.TTC.Max, r.TTC.N)
	fmt.Printf("  response (virtual s) p50=%.1f p95=%.1f p99=%.1f max=%.1f n=%d\n",
		r.Response.P50, r.Response.P95, r.Response.P99, r.Response.Max, r.Response.N)
	fmt.Printf("  settle lag (%s) p50=%.3f p95=%.3f p99=%.3f n=%d\n",
		unit, r.SettleLag.P50, r.SettleLag.P95, r.SettleLag.P99, r.SettleLag.N)
	fmt.Printf("  deadlines met %d missed %d (miss rate %.4f)\n",
		r.DeadlineMet, r.DeadlineMissed, r.DeadlineMissRate)
	fmt.Printf("  revenue %.2f utilization %.4f\n", r.Revenue, r.Utilization)
	if r.OpenLoop != nil {
		fmt.Printf("  open-loop: scheduled %.2f/s achieved %.2f/s error %+.4f max-lag %.1fms\n",
			r.OpenLoop.ScheduledJobsPerSec, r.OpenLoop.AchievedJobsPerSec,
			r.OpenLoop.RateError, r.OpenLoop.MaxSubmitLagMs)
	}
	if r.WallSeconds > 0 {
		fmt.Printf("  wall %.2fs\n", r.WallSeconds)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "faucets-scenario: %v\n", err)
	os.Exit(1)
}
