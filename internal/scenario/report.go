package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
)

// ScenarioReport is the machine-readable outcome of one scenario run.
// Both executors emit the same shape so a gridsim dry run and a
// live-grid soak are directly comparable, and Compare can gate CI on a
// committed baseline.
//
// Units: gridsim latencies are VIRTUAL seconds; live-grid TTC and
// settle-lag are WALL milliseconds (the client-observed number an
// operator cares about), while response time stays in virtual seconds
// so deadline arithmetic matches the contracts. The Backend field says
// which reading applies.
type ScenarioReport struct {
	Scenario string `json:"scenario"`
	Backend  string `json:"backend"` // "gridsim" | "grid"
	// Mechanism is the market mechanism the run awarded under
	// (first-price, posted-price, vickrey). Legacy reports omit it;
	// Compare reads the absence as first-price.
	Mechanism string `json:"mechanism,omitempty"`
	Seed      uint64 `json:"seed"`
	Servers   int    `json:"servers"`

	// Arrival accounting. Submitted counts jobs the driver actually
	// offered to the market (== Jobs unless the run was cut short);
	// Placed/Rejected/Shed partition their fates at admission, and
	// Finished/Settled count completions and paid-out contracts.
	Jobs      int `json:"jobs"`
	Submitted int `json:"submitted"`
	Placed    int `json:"placed"`
	Rejected  int `json:"rejected"`
	Shed      int `json:"shed"`
	Finished  int `json:"finished"`
	Settled   int `json:"settled"`

	// TTC is time-to-contract: submission to a committed bid.
	TTC Quantiles `json:"ttc"`
	// Response is dispatch-to-finish per finished job (virtual seconds).
	Response Quantiles `json:"response"`
	// SettleLag is finish-to-settlement (payment durably recorded).
	SettleLag Quantiles `json:"settle_lag"`

	DeadlineMet      int     `json:"deadline_met"`
	DeadlineMissed   int     `json:"deadline_missed"`
	DeadlineMissRate float64 `json:"deadline_miss_rate"`

	// Revenue is total credits earned across the fleet; PerServer
	// breaks it down by faucet.
	Revenue          float64            `json:"revenue"`
	RevenuePerServer map[string]float64 `json:"revenue_per_server,omitempty"`
	// Utilization is the fleet-wide mean busy-PE fraction over the run.
	Utilization          float64            `json:"utilization"`
	UtilizationPerServer map[string]float64 `json:"utilization_per_server,omitempty"`

	// Counters carries the overload-protection tallies scraped from
	// internal/telemetry (shed/breaker/outbox and friends); gridsim
	// runs fill the subset the simulator models.
	Counters map[string]float64 `json:"counters,omitempty"`

	// OpenLoop is present only for live-grid runs: proof the driver
	// held the arrival clock instead of closing the loop on
	// completions.
	OpenLoop *OpenLoopStats `json:"open_loop,omitempty"`

	// WallSeconds is live-grid only; omitted from gridsim reports so
	// they stay byte-identical per seed.
	WallSeconds float64 `json:"wall_seconds,omitempty"`
}

// OpenLoopStats quantifies how faithfully the driver held the schedule.
type OpenLoopStats struct {
	// ScheduledJobsPerSec is the trace's arrival rate over the window.
	ScheduledJobsPerSec float64 `json:"scheduled_jobs_per_sec"`
	// AchievedJobsPerSec is the rate the driver actually fired at.
	AchievedJobsPerSec float64 `json:"achieved_jobs_per_sec"`
	// RateError is (achieved − scheduled)/scheduled; an open-loop
	// driver keeps |RateError| small no matter how slow the grid is.
	RateError float64 `json:"rate_error"`
	// MaxSubmitLagMs is the worst wall-clock lateness of any single
	// submission behind its scheduled instant.
	MaxSubmitLagMs float64 `json:"max_submit_lag_ms"`
}

// Quantiles summarizes a latency sample.
type Quantiles struct {
	N   int     `json:"n"`
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

// Summarize computes nearest-rank quantiles over a sample (any unit).
func Summarize(xs []float64) Quantiles {
	q := Quantiles{N: len(xs)}
	if len(xs) == 0 {
		return q
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := func(p float64) float64 {
		i := int(p/100*float64(len(s))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(s) {
			i = len(s) - 1
		}
		return s[i]
	}
	q.P50 = rank(50)
	q.P95 = rank(95)
	q.P99 = rank(99)
	q.Max = s[len(s)-1]
	return q
}

// WriteJSON writes the report pretty-printed with a trailing newline,
// matching the experiments package's on-disk conventions.
func (r *ScenarioReport) WriteJSON(path string) error {
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("scenario: marshal report: %w", err)
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return fmt.Errorf("scenario: write report: %w", err)
	}
	return nil
}

// GateOpts tunes the Compare regression gate.
type GateOpts struct {
	// TTCTolerance is the allowed relative increase of TTC.P99 over
	// baseline (1.0 = up to double). Live-grid latencies are noisy;
	// CI uses a generous multiple.
	TTCTolerance float64
	// MissRateSlack is the allowed absolute increase in
	// DeadlineMissRate over baseline (0.05 = five points).
	MissRateSlack float64
}

// Gate failures.
var (
	ErrGateTTC      = errors.New("scenario: p99 time-to-contract regressed")
	ErrGateMissRate = errors.New("scenario: deadline-miss rate regressed")
	ErrGateMismatch = errors.New("scenario: baseline/current mismatch")
	ErrSLO          = errors.New("scenario: SLO violated")
)

// Compare gates current against baseline: same scenario and backend,
// p99 TTC within (1+TTCTolerance)×baseline, deadline-miss rate within
// MissRateSlack points. A missing baseline is the caller's error to
// surface, and a nil report fails here — absence never passes, matching
// experiments.CompareBench.
func Compare(baseline, current *ScenarioReport, opts GateOpts) error {
	if baseline == nil || current == nil {
		return fmt.Errorf("%w: nil report", ErrGateMismatch)
	}
	if baseline.Scenario != current.Scenario || baseline.Backend != current.Backend ||
		canonMechanism(baseline.Mechanism) != canonMechanism(current.Mechanism) {
		return fmt.Errorf("%w: baseline %s/%s/%s vs current %s/%s/%s", ErrGateMismatch,
			baseline.Scenario, baseline.Backend, canonMechanism(baseline.Mechanism),
			current.Scenario, current.Backend, canonMechanism(current.Mechanism))
	}
	if opts.TTCTolerance > 0 && baseline.TTC.N > 0 && current.TTC.N > 0 {
		limit := baseline.TTC.P99 * (1 + opts.TTCTolerance)
		if current.TTC.P99 > limit {
			return fmt.Errorf("%w: p99 %.3f > limit %.3f (baseline %.3f, tolerance %.0f%%)",
				ErrGateTTC, current.TTC.P99, limit, baseline.TTC.P99, opts.TTCTolerance*100)
		}
	}
	if current.DeadlineMissRate > baseline.DeadlineMissRate+opts.MissRateSlack {
		return fmt.Errorf("%w: %.4f > baseline %.4f + slack %.4f",
			ErrGateMissRate, current.DeadlineMissRate, baseline.DeadlineMissRate, opts.MissRateSlack)
	}
	return nil
}

// CheckSLO enforces a scenario's absolute objectives against the report.
func (r *ScenarioReport) CheckSLO(slo *SLO) error {
	if slo == nil {
		return nil
	}
	if slo.MaxDeadlineMissRate != nil && r.DeadlineMissRate > *slo.MaxDeadlineMissRate {
		return fmt.Errorf("%w: deadline-miss rate %.4f > %.4f",
			ErrSLO, r.DeadlineMissRate, *slo.MaxDeadlineMissRate)
	}
	if slo.MaxTTCp99Ms != nil && r.TTC.P99 > *slo.MaxTTCp99Ms {
		return fmt.Errorf("%w: p99 TTC %.3f > %.3f", ErrSLO, r.TTC.P99, *slo.MaxTTCp99Ms)
	}
	if slo.MinPlacedFraction != nil {
		frac := 0.0
		if r.Submitted > 0 {
			frac = float64(r.Placed) / float64(r.Submitted)
		}
		if frac < *slo.MinPlacedFraction {
			return fmt.Errorf("%w: placed fraction %.4f < %.4f", ErrSLO, frac, *slo.MinPlacedFraction)
		}
	}
	return nil
}
