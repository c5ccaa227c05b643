package scenario

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"faucets/internal/qos"
	"faucets/internal/sim"
	"faucets/internal/workload"
)

// Process is one arrival process in a scenario. Processes are layered
// additively: each generates its own submissions in [0, Duration) from
// its own seeded RNG stream, then the streams are merged into one
// SubmitAt-sorted trace. Because every process owns an independent
// stream derived from (scenario seed, process index), adding or
// removing one process never perturbs the arrivals of the others —
// the same paired-comparison property internal/sim's per-entity RNGs
// give the simulator.
//
// Kinds:
//
//	poisson     — constant-rate Poisson arrivals (Rate jobs/s).
//	diurnal     — inhomogeneous Poisson with a sinusoidal day curve:
//	              rate(t) = Rate·(1 + Amplitude·sin(2π(t+Phase)/Period)),
//	              thinned from a Rate·(1+Amplitude) envelope
//	              (Lewis–Shedler). Period defaults to the scenario
//	              duration (one "day" per run).
//	onoff       — bursty ON/OFF source: exponentially-distributed ON
//	              periods (mean On) emitting Poisson arrivals at Rate,
//	              separated by silent OFF periods (mean Off).
//	flash       — flash crowd: a homogeneous Poisson burst at Rate
//	              confined to [At−Width/2, At+Width/2].
//	adversarial — adversarial-deadline batches: every Every seconds, a
//	              synchronized Burst of jobs lands within a 1-second
//	              spread, every one carrying a deadline (the process
//	              forces DeadlineFraction=1 and a tight default
//	              tightness of 1.05) — the worst case for admission
//	              and bidding.
type Process struct {
	Kind string `json:"kind"`
	// Rate is the arrival rate in jobs per virtual second (poisson,
	// diurnal, onoff while ON, flash).
	Rate float64 `json:"rate,omitempty"`
	// Amplitude (diurnal) is the relative swing of the sinusoid, in
	// [0,1]; 0.8 means the trough runs at 20% of the mean rate.
	Amplitude float64 `json:"amplitude,omitempty"`
	// Period (diurnal) is the length of one day in virtual seconds
	// (default: scenario duration).
	Period float64 `json:"period,omitempty"`
	// Phase (diurnal) shifts the curve (virtual seconds).
	Phase float64 `json:"phase,omitempty"`
	// On/Off (onoff) are the mean burst and silence lengths (virtual
	// seconds).
	On  float64 `json:"on,omitempty"`
	Off float64 `json:"off,omitempty"`
	// At/Width (flash) center and bound the spike window.
	At    float64 `json:"at,omitempty"`
	Width float64 `json:"width,omitempty"`
	// Every/Burst (adversarial) space and size the deadline batches.
	Every float64 `json:"every,omitempty"`
	Burst int     `json:"burst,omitempty"`
	// Jobs overrides the scenario-level job mix for this process only.
	Jobs *JobMix `json:"jobs,omitempty"`
}

func (p *Process) validate() error {
	switch p.Kind {
	case "poisson":
		if p.Rate <= 0 {
			return fmt.Errorf("poisson needs rate > 0, got %v", p.Rate)
		}
	case "diurnal":
		if p.Rate <= 0 {
			return fmt.Errorf("diurnal needs rate > 0, got %v", p.Rate)
		}
		if p.Amplitude < 0 || p.Amplitude > 1 {
			return fmt.Errorf("diurnal amplitude %v outside [0,1]", p.Amplitude)
		}
		if p.Period < 0 {
			return fmt.Errorf("diurnal period %v negative", p.Period)
		}
	case "onoff":
		if p.Rate <= 0 || p.On <= 0 || p.Off <= 0 {
			return fmt.Errorf("onoff needs rate/on/off > 0, got %v/%v/%v", p.Rate, p.On, p.Off)
		}
	case "flash":
		if p.Rate <= 0 || p.Width <= 0 {
			return fmt.Errorf("flash needs rate and width > 0, got %v/%v", p.Rate, p.Width)
		}
	case "adversarial":
		if p.Every <= 0 || p.Burst <= 0 {
			return fmt.Errorf("adversarial needs every > 0 and burst > 0, got %v/%d", p.Every, p.Burst)
		}
	default:
		return fmt.Errorf("%w: %q", ErrUnknownKind, p.Kind)
	}
	return nil
}

// arrival is one generated submission before global ordering; its
// process's job mix and shape stream are looked up by proc.
type arrival struct {
	t    float64
	proc int // generating process index (tie-break for the merge)
	idx  int // ordinal within the process
}

// users names the submitting users round-robin.
var users = [...]string{"user-0", "user-1", "user-2", "user-3", "user-4", "user-5", "user-6"}

// GenerateTrace expands the scenario's traffic processes into one
// SubmitAt-sorted workload trace, deterministically from Spec.Seed.
// Each process derives two independent streams from (seed, index): one
// clocks arrivals, one draws job shapes — so the number of arrivals a
// process produces never disturbs another process's jobs.
func (s *Spec) GenerateTrace() (*workload.Trace, error) {
	return s.generateTrace(new(traceStore))
}

// traceStore is the storage a trace is generated into: the trace with
// its items, one contract per item, the job-ID strings and the arrival
// scratch. A store generates one trace at a time: the next generation
// overwrites the last one's items and contracts.
type traceStore struct {
	tr        workload.Trace
	contracts []qos.Contract
	ids       []string
	times     [][]float64
	heads     []int
	all       []arrival
}

func (s *Spec) generateTrace(b *traceStore) (*workload.Trace, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	base := s.Jobs.shape()
	n := len(s.Traffic)
	if len(b.times) < n {
		b.times = append(b.times, make([][]float64, n-len(b.times))...)
	}
	times, mixes, shapes := b.times[:n], make([]workload.Spec, n), make([]*sim.RNG, n)
	total := 0
	for pi := range s.Traffic {
		p := &s.Traffic[pi]
		// golden-ratio stride keeps per-process seeds well separated
		// even for adjacent scenario seeds.
		root := sim.NewRNG(s.Seed ^ (0x9e3779b97f4a7c15 * uint64(pi+1)))
		clock := root.Split()
		shapes[pi] = root.Split()
		mix := base
		if p.Jobs != nil {
			mix = p.Jobs.shape()
		}
		times[pi] = p.arrivals(times[pi], clock, s.Duration)
		total += len(times[pi])
		if p.Kind == "adversarial" {
			// Adversarial batches exist to stress deadlines: force the
			// payoff on and keep it tight unless the mix overrides it.
			mix.DeadlineFraction = 1
			if p.Jobs == nil || p.Jobs.DeadlineTightness == 0 {
				mix.DeadlineTightness = 1.05
			}
		}
		mixes[pi] = mix
	}
	// Each process's times ascend, so merging them, the lower process
	// first on a tie, puts the arrivals in (t, proc, idx) order.
	all, heads := slices.Grow(b.all[:0], total), append(b.heads[:0], make([]int, n)...)
	for len(all) < total {
		pi := -1
		for q, ts := range times {
			if heads[q] < len(ts) && (pi < 0 || ts[heads[q]] < times[pi][heads[pi]]) {
				pi = q
			}
		}
		all = append(all, arrival{t: times[pi][heads[pi]], proc: pi, idx: heads[pi]})
		heads[pi]++
	}
	b.all, b.heads = all, heads
	for len(b.ids) < len(all) {
		b.ids = append(b.ids, fmt.Sprintf("job-%06d", len(b.ids)))
	}
	b.contracts = slices.Grow(b.contracts[:0], len(all))[:len(all)]
	tr := &b.tr
	// Record provenance in the embedded spec: the trace regenerates from
	// the scenario, not from workload.Generate.
	tr.Spec = base
	tr.Spec.Seed = s.Seed
	tr.Spec.Jobs = len(all)
	tr.Items = slices.Grow(tr.Items[:0], len(all))
	for gi, a := range all {
		// Shapes are drawn from the process's own stream in process-local
		// arrival order (the merge above only reorders globally), so the
		// draw sequence is independent of how other processes interleave.
		tr.Items = append(tr.Items, workload.Item{
			ID:       b.ids[gi],
			SubmitAt: a.t,
			User:     users[gi%len(users)],
			Contract: workload.Sample(shapes[a.proc], mixes[a.proc], a.idx, &b.contracts[gi]),
		})
	}
	return tr, nil
}

// arrivals generates this process's submission times in [0, horizon),
// sorted ascending, consuming only the given clock stream. It returns
// them in out's storage, overwriting what out held.
func (p *Process) arrivals(out []float64, rng *sim.RNG, horizon float64) []float64 {
	out = out[:0]
	switch p.Kind {
	case "poisson":
		for t := rng.Exp(1 / p.Rate); t < horizon; t += rng.Exp(1 / p.Rate) {
			out = append(out, t)
		}
	case "diurnal":
		period := p.Period
		if period == 0 {
			period = horizon
		}
		// Lewis–Shedler thinning against the peak-rate envelope.
		peak := p.Rate * (1 + p.Amplitude)
		for t := rng.Exp(1 / peak); t < horizon; t += rng.Exp(1 / peak) {
			rate := p.Rate * (1 + p.Amplitude*math.Sin(2*math.Pi*(t+p.Phase)/period))
			if rng.Float64()*peak < rate {
				out = append(out, t)
			}
		}
	case "onoff":
		t := 0.0
		for t < horizon {
			end := t + rng.Exp(p.On)
			if end > horizon {
				end = horizon
			}
			for a := t + rng.Exp(1/p.Rate); a < end; a += rng.Exp(1 / p.Rate) {
				out = append(out, a)
			}
			t = end + rng.Exp(p.Off)
		}
	case "flash":
		lo := p.At - p.Width/2
		hi := p.At + p.Width/2
		if lo < 0 {
			lo = 0
		}
		if hi > horizon {
			hi = horizon
		}
		for t := lo + rng.Exp(1/p.Rate); t < hi; t += rng.Exp(1 / p.Rate) {
			out = append(out, t)
		}
		sort.Float64s(out)
	case "adversarial":
		for center := p.Every; center < horizon; center += p.Every {
			for i := 0; i < p.Burst; i++ {
				// one-second spread around the batch instant
				out = append(out, center+rng.Range(0, 1))
			}
		}
		sort.Float64s(out)
	}
	return out
}
