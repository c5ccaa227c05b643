// Package qos implements the quality-of-service contracts of the Faucets
// system (paper §2.1). A contract specifies a parallel job's resource
// requirements — the range of processors it can run on, memory, and total
// work — its behaviour over that processor range (parallel efficiency with
// linear interpolation between the bounds), and its payoff: how much the
// client pays as a function of completion time, with a soft deadline, a
// hard deadline, and a penalty past the hard deadline.
package qos

import (
	"encoding/json"
	"errors"
	"fmt"
)

// Contract is a job's QoS contract, exactly the fields the paper's
// prototype supports: minimum and maximum processors, per-processor and
// total memory, total CPU time (machine-independent work), the parallel
// efficiency at the processor bounds (linear interpolation assumed in
// between), and a payoff function with soft and hard deadlines.
type Contract struct {
	// App names one of the Compute Server's "Known Applications"
	// (paper §2.2): clusters export a list of applications they trust.
	App string `json:"app"`

	// MinPE and MaxPE bound the processors the job can use. A rigid job
	// has MinPE == MaxPE; an adaptive job (paper §4) can shrink or expand
	// anywhere within the bounds at runtime.
	MinPE int `json:"min_pe"`
	MaxPE int `json:"max_pe"`

	// MemPerPE is the required memory per processor in MB; TotalMem is an
	// additional aggregate floor in MB (either may be zero).
	MemPerPE int `json:"mem_per_pe,omitempty"`
	TotalMem int `json:"total_mem,omitempty"`

	// Work is the total sequential CPU time of the job in CPU-seconds on
	// a reference machine (speed factor 1.0). Wall-clock time on p
	// processors is Work / (p * Eff(p) * speed).
	Work float64 `json:"work"`

	// EffMin and EffMax are the parallel efficiencies at MinPE and MaxPE.
	// If both are zero the job is assumed perfectly scalable (eff 1.0
	// across the range). Efficiency between the bounds is linearly
	// interpolated, as in the paper's prototype.
	EffMin float64 `json:"eff_min,omitempty"`
	EffMax float64 `json:"eff_max,omitempty"`

	// Payoff describes what the client pays as a function of completion
	// time. A zero Payoff means "pay list price whenever it completes".
	Payoff Payoff `json:"payoff"`

	// Deadline is the simple single deadline of the prototype QoS; if the
	// experimental Payoff is set, Payoff.Hard governs instead. Zero means
	// no deadline.
	Deadline float64 `json:"deadline,omitempty"`

	// Phases optionally subdivides the job into components with distinct
	// requirements (paper §2.1: "Some applications have distinct phases
	// or components, each with very different requirements"). When
	// non-empty, Work must equal the sum of phase works.
	Phases []Phase `json:"phases,omitempty"`

	// Mechanism selects the market mechanism used to place this job:
	// one of the Mechanism* constants, or empty for the submitting
	// client's default (itself defaulting to the first-price auction).
	// Carried on the contract so a single submission stream can mix
	// mechanisms and so the choice survives the wire round trip.
	Mechanism string `json:"mechanism,omitempty"`
}

// Market mechanism names carried in Contract.Mechanism. The first-price
// sealed-bid auction is the paper's protocol (§5.3); the posted-price
// commodity market and the second-price (Vickrey) auction come from the
// Buyya economic-models design space (PAPERS.md).
const (
	MechanismFirstPrice  = "first-price"
	MechanismPostedPrice = "posted-price"
	MechanismVickrey     = "vickrey"
)

// ValidMechanism reports whether name is a known mechanism name or the
// empty default.
func ValidMechanism(name string) bool {
	switch name {
	case "", MechanismFirstPrice, MechanismPostedPrice, MechanismVickrey:
		return true
	}
	return false
}

// Phase is one component of a multi-phase contract. To be useful a phase
// must last several minutes (paper §2.1), but the package does not
// enforce a floor; schedulers may.
type Phase struct {
	Name   string  `json:"name"`
	Work   float64 `json:"work"`
	MinPE  int     `json:"min_pe"`
	MaxPE  int     `json:"max_pe"`
	EffMin float64 `json:"eff_min,omitempty"`
	EffMax float64 `json:"eff_max,omitempty"`
}

// Eff returns the phase's parallel efficiency at p processors, with the
// same linear interpolation and clamping rules as Contract.Eff.
func (ph Phase) Eff(p int) float64 {
	if ph.EffMin == 0 && ph.EffMax == 0 {
		return 1.0
	}
	if p <= ph.MinPE || ph.MaxPE == ph.MinPE {
		return ph.EffMin
	}
	if p >= ph.MaxPE {
		return ph.EffMax
	}
	frac := float64(p-ph.MinPE) / float64(ph.MaxPE-ph.MinPE)
	return ph.EffMin + frac*(ph.EffMax-ph.EffMin)
}

// Speedup returns the phase's effective speedup when the job holds p
// processors: the phase cannot use more than its MaxPE, so surplus
// processors idle ("the scheduler may benefit from knowing the shift in
// performance parameters when the program shifts from one phase to
// another", §2.1).
func (ph Phase) Speedup(p int) float64 {
	if p > ph.MaxPE {
		p = ph.MaxPE
	}
	if p < 1 {
		return 0
	}
	return float64(p) * ph.Eff(p)
}

// Validation errors.
var (
	ErrNoApp      = errors.New("qos: contract names no application")
	ErrPERange    = errors.New("qos: invalid processor range")
	ErrWork       = errors.New("qos: work must be positive")
	ErrEfficiency = errors.New("qos: efficiency must lie in (0, 1]")
	ErrDeadline   = errors.New("qos: deadline must be non-negative")
	ErrPhases     = errors.New("qos: phase works must sum to contract work")
	ErrMechanism  = errors.New("qos: unknown market mechanism")
)

// Validate checks the contract for internal consistency.
func (c *Contract) Validate() error {
	if c.App == "" {
		return ErrNoApp
	}
	if c.MinPE < 1 || c.MaxPE < c.MinPE {
		return fmt.Errorf("%w: min=%d max=%d", ErrPERange, c.MinPE, c.MaxPE)
	}
	if c.Work <= 0 {
		return fmt.Errorf("%w: %v", ErrWork, c.Work)
	}
	for _, e := range []float64{c.EffMin, c.EffMax} {
		if e < 0 || e > 1 {
			return fmt.Errorf("%w: %v", ErrEfficiency, e)
		}
	}
	if (c.EffMin == 0) != (c.EffMax == 0) {
		return fmt.Errorf("%w: both or neither of eff_min/eff_max must be set", ErrEfficiency)
	}
	if c.Deadline < 0 {
		return fmt.Errorf("%w: %v", ErrDeadline, c.Deadline)
	}
	if !ValidMechanism(c.Mechanism) {
		return fmt.Errorf("%w: %q", ErrMechanism, c.Mechanism)
	}
	if err := c.Payoff.Validate(); err != nil {
		return err
	}
	if len(c.Phases) > 0 {
		var sum float64
		for i, p := range c.Phases {
			if p.Work <= 0 {
				return fmt.Errorf("%w: phase %d work %v", ErrWork, i, p.Work)
			}
			if p.MinPE < 1 || p.MaxPE < p.MinPE {
				return fmt.Errorf("%w: phase %d min=%d max=%d", ErrPERange, i, p.MinPE, p.MaxPE)
			}
			sum += p.Work
		}
		if diff := sum - c.Work; diff > 1e-6 || diff < -1e-6 {
			return fmt.Errorf("%w: sum=%v work=%v", ErrPhases, sum, c.Work)
		}
	}
	return nil
}

// Adaptive reports whether the job can change its processor count at
// runtime.
func (c *Contract) Adaptive() bool { return c.MaxPE > c.MinPE }

// Eff returns the parallel efficiency at p processors, linearly
// interpolated between (MinPE, EffMin) and (MaxPE, EffMax). Outside the
// range it clamps to the nearest bound. A contract with no efficiency
// information is treated as perfectly scalable.
func (c *Contract) Eff(p int) float64 {
	if c.EffMin == 0 && c.EffMax == 0 {
		return 1.0
	}
	if p <= c.MinPE || c.MaxPE == c.MinPE {
		return c.EffMin
	}
	if p >= c.MaxPE {
		return c.EffMax
	}
	frac := float64(p-c.MinPE) / float64(c.MaxPE-c.MinPE)
	return c.EffMin + frac*(c.EffMax-c.EffMin)
}

// Speedup returns p * Eff(p): the factor by which p processors divide the
// sequential work.
func (c *Contract) Speedup(p int) float64 { return float64(p) * c.Eff(p) }

// ExecTime returns the wall-clock seconds the job needs on p processors of
// a machine with the given speed factor (1.0 = reference machine). The
// paper's machine-independent run-time model: floating-point operation
// count times machine speed divided by parallel efficiency.
func (c *Contract) ExecTime(p int, speed float64) float64 {
	if p < 1 || speed <= 0 {
		return 0
	}
	return c.Work / (c.Speedup(p) * speed)
}

// CPUSeconds returns the processor-seconds consumed when run on p
// processors at the given speed: p * ExecTime. This is the quantity bids
// are priced against (paper §5.2: "the CPU-seconds needed for the job").
func (c *Contract) CPUSeconds(p int, speed float64) float64 {
	return float64(p) * c.ExecTime(p, speed)
}

// HardDeadline returns the effective hard deadline: Payoff.Hard if the
// experimental payoff is present, else the simple Deadline field, else 0
// meaning "none".
func (c *Contract) HardDeadline() float64 {
	if !c.Payoff.Zero() {
		return c.Payoff.Hard
	}
	return c.Deadline
}

// FitsMachine is the static screen of §5.1: whether a machine of numPE
// processors with memPerPE MB each could ever run the contract. It is
// judged at MinPE, the size an adaptive job can be shrunk to — the size
// a scheduler's admission holds it to, so a directory filter, a posted
// quote and the scheduler cannot disagree about the same machine.
func (c *Contract) FitsMachine(numPE, memPerPE int) bool {
	return c.MinPE <= numPE && c.FitsMemory(c.MinPE, memPerPE)
}

// FitsMemory reports whether a machine with the given per-PE memory (MB)
// and processor count can satisfy the contract's memory demands at p
// processors.
func (c *Contract) FitsMemory(p, machineMemPerPE int) bool {
	if c.MemPerPE > machineMemPerPE {
		return false
	}
	if c.TotalMem > 0 && p*machineMemPerPE < c.TotalMem {
		return false
	}
	return true
}

// PhaseAt locates the phase containing sequential-work offset done
// (phases execute in declaration order). ok is false for contracts
// without phases. A done value at or past the total work returns the
// final phase.
func (c *Contract) PhaseAt(done float64) (idx int, ph Phase, ok bool) {
	if len(c.Phases) == 0 {
		return 0, Phase{}, false
	}
	var acc float64
	for i, p := range c.Phases {
		acc += p.Work
		if done < acc {
			return i, p, true
		}
	}
	last := len(c.Phases) - 1
	return last, c.Phases[last], true
}

// PhaseRemaining returns the sequential work left in the phase that
// contains offset done.
func (c *Contract) PhaseRemaining(done float64) float64 {
	if len(c.Phases) == 0 {
		return c.Work - done
	}
	var acc float64
	for _, p := range c.Phases {
		acc += p.Work
		if done < acc {
			return acc - done
		}
	}
	return 0
}

// Marshal encodes the contract as JSON.
func (c *Contract) Marshal() ([]byte, error) { return json.Marshal(c) }

// Unmarshal decodes a JSON contract and validates it.
func Unmarshal(data []byte) (*Contract, error) {
	var c Contract
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("qos: decode: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// String renders a short human-readable description, as the Faucets client
// displays in its submission dialog (paper Fig 2).
func (c *Contract) String() string {
	return fmt.Sprintf("%s pe=[%d,%d] work=%.0fs eff=[%.2f,%.2f] deadline=%.0f",
		c.App, c.MinPE, c.MaxPE, c.Work, c.Eff(c.MinPE), c.Eff(c.MaxPE), c.HardDeadline())
}
