// Package workload generates the synthetic job-submission patterns the
// simulation framework (paper §5.4) runs discrete-event simulation over.
// The paper does not publish traces, so this is a standard parallel-
// workload model: Poisson arrivals, log-uniform runtimes, power-of-two-
// biased processor requests, a tunable fraction of malleable (adaptive)
// jobs, and deadline tightness expressed as a multiple of the job's
// best-case runtime.
package workload

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"faucets/internal/qos"
	"faucets/internal/sim"
)

// Spec parameterizes a synthetic workload.
type Spec struct {
	// Seed makes the trace reproducible.
	Seed uint64 `json:"seed"`
	// Jobs is the number of jobs to generate.
	Jobs int `json:"jobs"`
	// MeanInterarrival is the Poisson mean gap between submissions (s).
	MeanInterarrival float64 `json:"mean_interarrival"`
	// MinWork and MaxWork bound the log-uniform sequential work
	// (CPU-seconds).
	MinWork float64 `json:"min_work"`
	MaxWork float64 `json:"max_work"`
	// MaxPE bounds processor requests; requests are 2^k biased, k
	// uniform, clamped to MaxPE.
	MaxPE int `json:"max_pe"`
	// AdaptiveFraction is the probability a job is malleable
	// (MinPE < MaxPE); rigid jobs have MinPE == MaxPE.
	AdaptiveFraction float64 `json:"adaptive_fraction"`
	// DeadlineFraction is the probability a job carries a payoff
	// function with deadlines.
	DeadlineFraction float64 `json:"deadline_fraction"`
	// DeadlineTightness scales the soft deadline as a multiple of the
	// job's best-case runtime (≥1; smaller = tighter). The hard deadline
	// is twice the soft one.
	DeadlineTightness float64 `json:"deadline_tightness"`
	// PhasedFraction is the probability a job carries a multi-phase
	// contract (§2.1): a wide compute phase followed by a narrow
	// reduction phase.
	PhasedFraction float64 `json:"phased_fraction,omitempty"`
	// ValuePerCPUSecond scales payoff values relative to job size.
	ValuePerCPUSecond float64 `json:"value_per_cpu_second"`
	// Apps to draw application names from (round-robin by job index);
	// defaults to a single "synth" app.
	Apps []string `json:"apps,omitempty"`
}

// Spec validation errors. Each invalid field rejects with a distinct
// sentinel so callers (and the scenario engine, which builds Specs from
// user-written JSON) can classify failures with errors.Is instead of
// string matching.
var (
	// ErrNonPositiveJobs rejects Jobs <= 0: a zero- or negative-job spec
	// would generate a degenerate empty trace instead of failing loudly.
	ErrNonPositiveJobs = errors.New("workload: job count must be positive")
	// ErrNonPositiveInterarrival rejects MeanInterarrival <= 0, which
	// would collapse every submission onto t=0 (or run Exp backwards).
	ErrNonPositiveInterarrival = errors.New("workload: mean interarrival must be positive")
	// ErrBadWorkRange rejects MinWork <= 0 or MaxWork < MinWork.
	ErrBadWorkRange = errors.New("workload: work range requires 0 < min <= max")
	// ErrBadMaxPE rejects MaxPE < 1.
	ErrBadMaxPE = errors.New("workload: MaxPE must be >= 1")
	// ErrBadFraction rejects a probability field outside [0,1].
	ErrBadFraction = errors.New("workload: fraction outside [0,1]")
	// ErrBadTightness rejects DeadlineTightness < 1 when deadlines are on.
	ErrBadTightness = errors.New("workload: DeadlineTightness must be >= 1")
)

// Validate checks the spec: the arrival-process fields first, then the
// job-shape fields (ValidateShape).
func (s *Spec) Validate() error {
	switch {
	case s.Jobs <= 0:
		return fmt.Errorf("%w: got %d", ErrNonPositiveJobs, s.Jobs)
	case s.MeanInterarrival <= 0:
		return fmt.Errorf("%w: got %v", ErrNonPositiveInterarrival, s.MeanInterarrival)
	}
	return s.ValidateShape()
}

// ValidateShape checks only the job-shape fields (work range, processor
// bounds, mix fractions, deadline tightness), ignoring the arrival
// fields. The scenario engine uses it for specs whose arrival times come
// from its own traffic processes rather than Seed/Jobs/MeanInterarrival.
func (s *Spec) ValidateShape() error {
	switch {
	case s.MinWork <= 0 || s.MaxWork < s.MinWork:
		return fmt.Errorf("%w: [%v,%v]", ErrBadWorkRange, s.MinWork, s.MaxWork)
	case s.MaxPE < 1:
		return fmt.Errorf("%w: got %d", ErrBadMaxPE, s.MaxPE)
	case s.AdaptiveFraction < 0 || s.AdaptiveFraction > 1:
		return fmt.Errorf("%w: AdaptiveFraction=%v", ErrBadFraction, s.AdaptiveFraction)
	case s.DeadlineFraction < 0 || s.DeadlineFraction > 1:
		return fmt.Errorf("%w: DeadlineFraction=%v", ErrBadFraction, s.DeadlineFraction)
	case s.DeadlineFraction > 0 && s.DeadlineTightness < 1:
		return fmt.Errorf("%w: got %v", ErrBadTightness, s.DeadlineTightness)
	case s.PhasedFraction < 0 || s.PhasedFraction > 1:
		return fmt.Errorf("%w: PhasedFraction=%v", ErrBadFraction, s.PhasedFraction)
	}
	return nil
}

// Default returns a moderate mixed workload suitable for the benchmark
// harness: mostly adaptive jobs, half with deadlines.
func Default(seed uint64, jobs int, meanGap float64) Spec {
	return Spec{
		Seed:              seed,
		Jobs:              jobs,
		MeanInterarrival:  meanGap,
		MinWork:           60,
		MaxWork:           7200,
		MaxPE:             64,
		AdaptiveFraction:  0.8,
		DeadlineFraction:  0.5,
		DeadlineTightness: 3.0,
		ValuePerCPUSecond: 0.02,
	}
}

// Item is one generated submission.
type Item struct {
	ID       string        `json:"id"`
	SubmitAt float64       `json:"submit_at"`
	User     string        `json:"user"`
	Contract *qos.Contract `json:"contract"`
}

// Trace is a reproducible submission schedule, sorted by SubmitAt.
type Trace struct {
	Spec  Spec   `json:"spec"`
	Items []Item `json:"items"`
}

// Generate builds the trace for a spec deterministically from its seed.
func Generate(s Spec) (*Trace, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	rng := sim.NewRNG(s.Seed)
	tr := &Trace{Spec: s, Items: make([]Item, 0, s.Jobs)}
	now := 0.0
	for i := 0; i < s.Jobs; i++ {
		now += rng.Exp(s.MeanInterarrival)
		tr.Items = append(tr.Items, Item{
			ID:       fmt.Sprintf("job-%06d", i),
			SubmitAt: now,
			User:     fmt.Sprintf("user-%d", i%7),
			Contract: Sample(rng, s, i, nil),
		})
	}
	return tr, nil
}

// Sample draws one job contract from the spec's shape distributions
// (work, request size, malleability, phases, deadlines) using the
// caller's RNG stream; i selects the application round-robin. The
// arrival-process fields of the spec are ignored, so scenario traffic
// generators can layer their own arrival clocks over the same job model.
// The caller is responsible for having validated the shape
// (Spec.ValidateShape).
//
// The draw lands in dst, which it overwrites whole but for the storage
// of its Phases, and Sample returns dst; a nil dst draws into a new
// contract.
func Sample(rng *sim.RNG, s Spec, i int, dst *qos.Contract) *qos.Contract {
	app := "synth"
	if len(s.Apps) > 0 {
		app = s.Apps[i%len(s.Apps)]
	}
	work := rng.LogUniform(s.MinWork, s.MaxWork)

	// Power-of-two-biased request size.
	maxK := 0
	for 1<<(maxK+1) <= s.MaxPE {
		maxK++
	}
	pe := 1 << rng.Intn(maxK+1)
	if pe > s.MaxPE {
		pe = s.MaxPE
	}
	c := dst
	if c == nil {
		c = new(qos.Contract)
	}
	*c = qos.Contract{App: app, MinPE: pe, MaxPE: pe, Work: work, Phases: c.Phases[:0]}
	if rng.Bool(s.AdaptiveFraction) {
		// Malleable: can shrink to a quarter of the request. A
		// 1-processor request cannot shrink, so widen it first.
		if pe == 1 && s.MaxPE >= 2 {
			pe = 2
			c.MaxPE = pe
		}
		min := pe / 4
		if min < 1 {
			min = 1
		}
		c.MinPE = min
		c.EffMin = 0.95
		c.EffMax = rng.Range(0.6, 0.9)
	}
	if rng.Bool(s.PhasedFraction) && c.MaxPE >= 4 {
		// Two phases (§2.1): a wide compute phase (most of the
		// work) and a narrow reduction phase capped at a quarter of
		// the request.
		wideWork := work * rng.Range(0.6, 0.9)
		narrowMax := c.MaxPE / 4
		if narrowMax < c.MinPE {
			narrowMax = c.MinPE
		}
		c.Phases = append(c.Phases,
			qos.Phase{Name: "compute", Work: wideWork, MinPE: c.MinPE, MaxPE: c.MaxPE,
				EffMin: c.EffMin, EffMax: c.EffMax},
			qos.Phase{Name: "reduce", Work: work - wideWork, MinPE: c.MinPE, MaxPE: narrowMax})
	}
	if rng.Bool(s.DeadlineFraction) {
		best := c.ExecTime(c.MaxPE, 1.0)
		soft := best * rng.Range(s.DeadlineTightness, 2*s.DeadlineTightness)
		value := s.ValuePerCPUSecond * c.CPUSeconds(c.MaxPE, 1.0)
		c.Payoff = qos.WithDeadline(value, soft, 2*soft, value*0.5)
	}
	return c
}

// Save writes the trace as JSON.
func (t *Trace) Save(path string) error {
	blob, err := json.MarshalIndent(t, "", " ")
	if err != nil {
		return fmt.Errorf("workload: marshal: %w", err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return fmt.Errorf("workload: write: %w", err)
	}
	return nil
}

// LoadTrace reads a JSON trace and validates every contract in it.
func LoadTrace(path string) (*Trace, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("workload: read: %w", err)
	}
	var t Trace
	if err := json.Unmarshal(blob, &t); err != nil {
		return nil, fmt.Errorf("workload: decode: %w", err)
	}
	for i, it := range t.Items {
		if it.Contract == nil {
			return nil, fmt.Errorf("workload: item %d has no contract", i)
		}
		if err := it.Contract.Validate(); err != nil {
			return nil, fmt.Errorf("workload: item %d: %w", i, err)
		}
	}
	return &t, nil
}

// TotalWork sums the sequential work of every job in the trace.
func (t *Trace) TotalWork() float64 {
	var sum float64
	for _, it := range t.Items {
		sum += it.Contract.Work
	}
	return sum
}

// OfferedLoad estimates the trace's demand as a fraction of a grid with
// totalPE reference processors: total work divided by (makespan window ×
// capacity).
func (t *Trace) OfferedLoad(totalPE int) float64 {
	if len(t.Items) == 0 || totalPE == 0 {
		return 0
	}
	span := t.Items[len(t.Items)-1].SubmitAt
	if span <= 0 {
		return 1
	}
	return t.TotalWork() / (span * float64(totalPE))
}
