package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"faucets/internal/scenario"
)

const (
	sweepScenario = "examples/scenarios/flash-crowd.json"
	sweepBaseline = "SCENARIO_BASELINE.json"
)

// repoRoot finds the checkout root — the directory holding go.mod — from
// the working directory, so the scenario files resolve both under
// `go run ./bench` at the root and under `go test` inside bench/.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory")
		}
		dir = parent
	}
}

// sweepSpec is the flash-crowd scenario stretched to sweepDuration and
// reseeded: what one sim-sweep replay runs.
func sweepSpec(base *scenario.Spec, seed int64) *scenario.Spec {
	s := *base
	s.Duration = sweepDuration
	s.Seed = uint64(seed)
	return &s
}

// sweepPhase accumulates the replay windows of one kind.
type sweepPhase struct {
	windowAcc
	log     *spanLog
	reports []*scenario.ScenarioReport
	ms      samples // one replay, ms
}

func processSnapshot() snapshot { return takeSnapshot(nil, nil) }

// sweepWindow replays consecutive seeds from `first` until the window has
// passed and at least sweepPinned replays are done. Every window starts
// again from `first`, so all of them replay the same seeds.
func sweepWindow(base *scenario.Spec, first int64, length time.Duration, ph *sweepPhase) error {
	from := ph.begin(processSnapshot)
	defer func() { ph.end(from, processSnapshot) }()
	deadline := time.Now().Add(length)
	for i := 0; i < sweepPinned || time.Now().Before(deadline); i++ {
		start := time.Now()
		r, err := scenario.RunSim(sweepSpec(base, first+int64(i)))
		end := time.Now()
		if err != nil {
			return fmt.Errorf("replay seed %d: %w", first+int64(i), err)
		}
		ph.m.done.Add(int64(r.Submitted))
		ph.log.add(fmt.Sprintf("seed-%d", r.Seed), spanReplay, "", start, end)
		ph.observe(end, float64(end.Sub(start))/1e6)
		ph.ms.addSince(start, end, time.Millisecond)
		ph.reports = append(ph.reports, r)
	}
	return nil
}

func runSimSweep(cfg *runCfg) (*workloadResult, error) {
	const name = wSimSweep
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	// Set-up is loading and validating the scenario and its pinned
	// baseline and generating the first seed's trace; no grid boots.
	var base *scenario.Spec
	var pinned *scenario.BaselineSet
	var setup samples
	for began := time.Now(); !setupDone(len(setup), time.Since(began)); {
		start := time.Now()
		if base, err = scenario.Load(filepath.Join(root, sweepScenario)); err != nil {
			return nil, err
		}
		if pinned, err = scenario.LoadBaselineSet(filepath.Join(root, sweepBaseline)); err != nil {
			return nil, err
		}
		if _, err = sweepSpec(base, cfg.seed).GenerateTrace(); err != nil {
			return nil, err
		}
		setup.addSince(start, time.Now(), time.Second)
	}
	res := newResult(cfg, name)
	var log *spanLog
	if cfg.trace {
		log = newSpanLog()
	}

	warmStart := time.Now()
	if err := sweepWindow(base, cfg.seed, warmup, &sweepPhase{}); err != nil {
		return nil, err
	}
	warmS := time.Since(warmStart).Seconds()
	phases := map[bool]*sweepPhase{false: {}, true: {log: log}}
	for _, traced := range cfg.plan() {
		if err := sweepWindow(base, cfg.seed, cfg.windowLen(), phases[traced]); err != nil {
			return nil, err
		}
	}
	ph := phases[false]
	jobs, lost := 0, 0
	for _, r := range ph.reports {
		jobs += r.Submitted
		lost += r.Submitted - r.Placed - r.Rejected - r.Shed
	}
	var miss, util []float64
	for _, r := range ph.reports[:sweepPinned] {
		miss = append(miss, r.DeadlineMissRate)
		util = append(util, r.Utilization)
	}
	res.Attempted, res.Failed = jobs, lost
	res.setEndToEnd(name, map[string]float64{
		"setup_s":            setup.pct(50) + warmS,
		"ready_s":            setup.pct(50),
		"jobs_per_s":         ph.jobsPerSecond(float64(jobs)),
		"fail_ratio":         ratio(float64(lost), float64(jobs)),
		"latency_p50_ms":     ph.latencyMs(50),
		"latency_p90_ms":     ph.latencyMs(90),
		"cpu_ms_per_job":     ph.cpuMsPerJob(float64(jobs)),
		"alloc_kb_per_job":   ratio(ph.d.allocKB, float64(jobs)),
		"deadline_miss_rate": mean(miss),
		"utilization":        mean(util),
	})
	res.Samples = map[string]int{"replay": len(ph.ms)}

	if cfg.trace {
		tph := phases[true]
		lv := newLayerValues()
		tjobs := 0
		for _, r := range tph.reports {
			tjobs += r.Submitted
		}
		lv["gridsim.replay_p50_ms"] = tph.ms.pct(50)
		lv["gridsim.jobs_per_replay"] = ratio(float64(tjobs), float64(len(tph.reports)))
		lv["grid.tracing_overhead_pct"] = overheadPct(ph.ms.pct(50), tph.ms.pct(50))
		res.finishTraced(cfg, lv, nil, nil, log)
		res.Attempted += tjobs
	}

	res.addChecks(verifySweep(base, pinned, ph.reports[:sweepPinned])...)
	return res, nil
}

// verifySweep checks the simulator's determinism — each pinned seed,
// replayed again, gives a byte-identical report — and that the
// flash-crowd scenario exactly as committed still reproduces its pinned
// first-price baseline.
func verifySweep(base *scenario.Spec, pinned *scenario.BaselineSet, first []*scenario.ScenarioReport) []check {
	differ := 0
	for _, r := range first {
		again, err := scenario.RunSim(sweepSpec(base, int64(r.Seed)))
		if err != nil || !sameJSON(r, again) {
			differ++
		}
	}
	out := []check{checkf("replays-byte-identical", differ == 0, "%d of %d seeds differ when replayed twice", differ, len(first))}

	want := pinned.Lookup(base.Name, "gridsim", base.Mechanism)
	got, err := scenario.RunSim(base)
	switch {
	case err != nil:
		out = append(out, checkf("matches-pinned-baseline", false, "replay: %v", err))
	case want == nil:
		out = append(out, checkf("matches-pinned-baseline", false, "no %s gridsim baseline in %s", base.Name, sweepBaseline))
	default:
		out = append(out, checkf("matches-pinned-baseline", sameJSON(want, got),
			"%s seed %d against its %s entry", base.Name, base.Seed, sweepBaseline))
	}
	return out
}

func sameJSON(a, b any) bool {
	x, errA := json.Marshal(a)
	y, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(x, y)
}
