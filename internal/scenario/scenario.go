// Package scenario is the workload-description layer of the Faucets
// reproduction: a seeded, declarative spec ("diurnal load with a flash
// crowd at t=400 against 12 heterogeneous servers, two of them sick")
// that can be executed two interchangeable ways —
//
//   - RunSim replays the generated trace through the discrete-event
//     simulator (internal/gridsim): fast, fully deterministic per seed,
//     the backend CI pins byte-identical reports against.
//   - RunGrid drives the same trace as OPEN-LOOP load against a live
//     loopback TCP grid (internal/grid): submissions fire on the
//     arrival clock regardless of completions, so overload is actually
//     measured instead of self-throttled by the harness.
//
// Both executors emit the same machine-readable ScenarioReport
// (report.go) with p50/p95/p99 time-to-contract, settlement lag,
// revenue, utilization, and deadline-miss rate, which Compare gates
// against a committed baseline.
//
// This is the evaluation harness the paper's §5.4 simulation framework
// and the Buyya economic-models line (Nimrod-G) judge mechanisms with:
// deadline-miss rate, revenue, and utilization under *shaped* traffic.
package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"faucets/internal/bidding"
	"faucets/internal/chaos"
	"faucets/internal/machine"
	"faucets/internal/qos"
	"faucets/internal/scheduler"
	"faucets/internal/sim"
	"faucets/internal/workload"
)

// Spec is one complete, seeded scenario: who serves (Topology), what
// arrives (Traffic layered over the Jobs shape), and for how long.
type Spec struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Seed makes everything reproducible: topology draws, every traffic
	// process, and every job shape derive their streams from it.
	Seed uint64 `json:"seed"`
	// Duration is the arrival window in virtual seconds: processes
	// generate submissions in [0, Duration).
	Duration float64 `json:"duration"`
	// Topology describes the serving fleet.
	Topology Topology `json:"topology"`
	// Jobs is the default job-shape mix every traffic process draws
	// from (a process may override it).
	Jobs JobMix `json:"jobs"`
	// Traffic is the list of arrival processes, layered additively.
	Traffic []Process `json:"traffic"`
	// CommitDelay separates bid solicitation from commit in the gridsim
	// backend (virtual seconds); it is also the simulated run's
	// time-to-contract. Zero commits immediately.
	CommitDelay float64 `json:"commit_delay,omitempty"`
	// Mechanism names the market mechanism every award runs under
	// (first-price, posted-price, vickrey; empty = first-price). The
	// executors thread it to gridsim.Config / grid.Options, and
	// cmd/faucets-scenario's matrix mode overrides it per run.
	Mechanism string `json:"mechanism,omitempty"`
	// Grid tunes the live-grid executor; ignored by RunSim.
	Grid GridTuning `json:"grid,omitempty"`
	// SLO, when present, lets CheckSLO fail a run on absolute
	// scenario-level objectives (as opposed to Compare's relative gate).
	SLO *SLO `json:"slo,omitempty"`
}

// Topology describes the Compute Server fleet, either explicitly
// (Servers) or generatively (Count + ranges, drawn from the seed).
type Topology struct {
	// Servers lists explicit machines; when non-empty the generative
	// fields are ignored.
	Servers []ServerSpec `json:"servers,omitempty"`
	// Count generates that many servers named srv-00, srv-01, ...
	Count int `json:"count,omitempty"`
	// PEs per generated server (default 32).
	PEs int `json:"pe,omitempty"`
	// MemPerPE in MB (default 2048).
	MemPerPE int `json:"mem_per_pe,omitempty"`
	// SpeedMin/SpeedMax bound generated relative speeds (default 1/1).
	SpeedMin float64 `json:"speed_min,omitempty"`
	SpeedMax float64 `json:"speed_max,omitempty"`
	// CostMin/CostMax bound generated cost rates — the per-server
	// "faucet price" (default 0.01/0.01).
	CostMin float64 `json:"cost_min,omitempty"`
	CostMax float64 `json:"cost_max,omitempty"`
	// Scheduler/Bidder name the strategy every generated server runs
	// (fcfs, backfill, equipartition, profit; baseline, utilization,
	// weather, history). Defaults: equipartition, baseline.
	Scheduler string `json:"scheduler,omitempty"`
	Bidder    string `json:"bidder,omitempty"`
	// Apps the fleet exports as Known Applications (default ["synth"]).
	Apps []string `json:"apps,omitempty"`
	// Sick marks the LAST Sick generated servers with the Chaos
	// profile — the standard sick-minority shape. Live-grid backend
	// only; gridsim has no wire to fault.
	Sick  int           `json:"sick,omitempty"`
	Chaos *ChaosProfile `json:"chaos,omitempty"`
	// Shards partitions the live grid's Central Server into a
	// consistent-hash mesh of this many shards (0 or 1 = the singleton
	// server). Live-grid backend only; gridsim's control plane is a
	// single in-process map with nothing to shard, so RunSim ignores it
	// and the simulated report is identical at any shard count.
	Shards int `json:"shards,omitempty"`
}

// ServerSpec is one explicit Compute Server.
type ServerSpec struct {
	Name     string  `json:"name"`
	PEs      int     `json:"pe"`
	MemPerPE int     `json:"mem_per_pe,omitempty"`
	Speed    float64 `json:"speed,omitempty"`
	CostRate float64 `json:"cost_rate,omitempty"`
	// Scheduler/Bidder override the topology-level strategy names.
	Scheduler string `json:"scheduler,omitempty"`
	Bidder    string `json:"bidder,omitempty"`
	// Apps this server exports; empty inherits the topology's.
	Apps []string `json:"apps,omitempty"`
	// Chaos wraps THIS daemon's listener with a seeded fault injector
	// (live-grid backend only).
	Chaos *ChaosProfile `json:"chaos,omitempty"`
}

// ChaosProfile is the JSON face of chaos.Config: a per-daemon fault
// schedule (durations in milliseconds so specs stay unit-obvious).
type ChaosProfile struct {
	Seed           int64   `json:"seed,omitempty"`
	DropProb       float64 `json:"drop_prob,omitempty"`
	DelayProb      float64 `json:"delay_prob,omitempty"`
	MaxDelayMs     float64 `json:"max_delay_ms,omitempty"`
	PartialProb    float64 `json:"partial_prob,omitempty"`
	TrickleProb    float64 `json:"trickle_prob,omitempty"`
	TrickleDelayMs float64 `json:"trickle_delay_ms,omitempty"`
	StallProb      float64 `json:"stall_prob,omitempty"`
}

// Injector builds the seeded fault injector for this profile.
func (p *ChaosProfile) Injector() *chaos.Injector {
	return chaos.New(chaos.Config{
		Seed:         p.Seed,
		DropProb:     p.DropProb,
		DelayProb:    p.DelayProb,
		MaxDelay:     time.Duration(p.MaxDelayMs * float64(time.Millisecond)),
		PartialProb:  p.PartialProb,
		TrickleProb:  p.TrickleProb,
		TrickleDelay: time.Duration(p.TrickleDelayMs * float64(time.Millisecond)),
		StallProb:    p.StallProb,
	})
}

// JobMix is the job-shape half of workload.Spec — everything except the
// arrival process, which scenario traffic supplies. Zero values take the
// workload.Default moderate mix.
type JobMix struct {
	MinWork           float64  `json:"min_work,omitempty"`
	MaxWork           float64  `json:"max_work,omitempty"`
	MaxPE             int      `json:"max_pe,omitempty"`
	AdaptiveFraction  *float64 `json:"adaptive_fraction,omitempty"`
	DeadlineFraction  *float64 `json:"deadline_fraction,omitempty"`
	DeadlineTightness float64  `json:"deadline_tightness,omitempty"`
	PhasedFraction    *float64 `json:"phased_fraction,omitempty"`
	ValuePerCPUSecond float64  `json:"value_per_cpu_second,omitempty"`
	Apps              []string `json:"apps,omitempty"`
}

// shape lowers the mix into a workload.Spec (arrival fields unset),
// applying the workload.Default values for anything left zero. Fraction
// fields are pointers so an explicit 0 ("no deadlines") is
// distinguishable from "default".
func (m JobMix) shape() workload.Spec {
	def := workload.Default(0, 1, 1)
	s := workload.Spec{
		MinWork:           m.MinWork,
		MaxWork:           m.MaxWork,
		MaxPE:             m.MaxPE,
		AdaptiveFraction:  def.AdaptiveFraction,
		DeadlineFraction:  def.DeadlineFraction,
		DeadlineTightness: m.DeadlineTightness,
		ValuePerCPUSecond: m.ValuePerCPUSecond,
		Apps:              m.Apps,
	}
	if s.MinWork == 0 {
		s.MinWork = def.MinWork
	}
	if s.MaxWork == 0 {
		s.MaxWork = def.MaxWork
	}
	if s.MaxPE == 0 {
		s.MaxPE = def.MaxPE
	}
	if m.AdaptiveFraction != nil {
		s.AdaptiveFraction = *m.AdaptiveFraction
	}
	if m.DeadlineFraction != nil {
		s.DeadlineFraction = *m.DeadlineFraction
	}
	if m.PhasedFraction != nil {
		s.PhasedFraction = *m.PhasedFraction
	}
	if s.DeadlineTightness == 0 {
		s.DeadlineTightness = def.DeadlineTightness
	}
	if s.ValuePerCPUSecond == 0 {
		s.ValuePerCPUSecond = def.ValuePerCPUSecond
	}
	return s
}

// GridTuning configures the live-grid executor (RunGrid); every field is
// optional. Durations are wall milliseconds.
type GridTuning struct {
	// TimeScale is virtual seconds per wall second (default 1000: one
	// wall millisecond per virtual second, the grid harness default).
	TimeScale         float64 `json:"timescale,omitempty"`
	RPCTimeoutMs      float64 `json:"rpc_timeout_ms,omitempty"`
	BidTimeoutMs      float64 `json:"bid_timeout_ms,omitempty"`
	SettleRetryMs     float64 `json:"settle_retry_ms,omitempty"`
	MaxInflight       int     `json:"max_inflight,omitempty"`
	BreakerThreshold  float64 `json:"breaker_threshold,omitempty"`
	BreakerCooldownMs float64 `json:"breaker_cooldown_ms,omitempty"`
	// GossipIntervalMs is the shard digest pull cadence (with
	// Topology.Shards > 1; 0 = central.DefaultGossipInterval).
	GossipIntervalMs float64 `json:"gossip_interval_ms,omitempty"`
	// DrainTimeoutMs bounds the post-arrival drain phase (status polls
	// + settlement watch); default 30000.
	DrainTimeoutMs float64 `json:"drain_timeout_ms,omitempty"`
}

// SLO is a set of absolute scenario-level objectives a run must meet.
type SLO struct {
	// MaxDeadlineMissRate caps DeadlineMissRate (fraction, 0-1).
	MaxDeadlineMissRate *float64 `json:"max_deadline_miss_rate,omitempty"`
	// MaxTTCp99Ms caps p99 time-to-contract in wall milliseconds
	// (live-grid backend; gridsim TTC is virtual and usually 0).
	MaxTTCp99Ms *float64 `json:"max_ttc_p99_ms,omitempty"`
	// MinPlacedFraction floors Placed/Submitted.
	MinPlacedFraction *float64 `json:"min_placed_fraction,omitempty"`
}

// Spec validation errors.
var (
	ErrNoTraffic   = errors.New("scenario: no traffic processes")
	ErrNoTopology  = errors.New("scenario: topology has neither servers nor a count")
	ErrBadDuration = errors.New("scenario: duration must be positive")
	ErrBadProcess  = errors.New("scenario: bad traffic process")
	ErrUnknownKind = errors.New("scenario: unknown traffic kind")
	ErrBadTopology = errors.New("scenario: bad topology")
	ErrUnknownName = errors.New("scenario: unknown strategy name")
)

// Validate checks the whole spec: duration, topology, job mix, and
// every traffic process.
func (s *Spec) Validate() error {
	if s.Duration <= 0 {
		return fmt.Errorf("%w: %v", ErrBadDuration, s.Duration)
	}
	if len(s.Traffic) == 0 {
		return ErrNoTraffic
	}
	if !qos.ValidMechanism(s.Mechanism) {
		return fmt.Errorf("%w: %q", qos.ErrMechanism, s.Mechanism)
	}
	if err := s.Topology.validate(); err != nil {
		return err
	}
	sh := s.Jobs.shape()
	if err := sh.ValidateShape(); err != nil {
		return fmt.Errorf("scenario: jobs: %w", err)
	}
	for i := range s.Traffic {
		p := &s.Traffic[i]
		if err := p.validate(); err != nil {
			return fmt.Errorf("%w [%d]: %v", ErrBadProcess, i, err)
		}
		if p.Jobs != nil {
			osh := p.Jobs.shape()
			if err := osh.ValidateShape(); err != nil {
				return fmt.Errorf("scenario: traffic[%d] jobs: %w", i, err)
			}
		}
	}
	return nil
}

// MechanismName resolves the spec's mechanism to its canonical name:
// the empty default reads back as first-price, so reports always carry
// an explicit mechanism tag.
func (s *Spec) MechanismName() string {
	if s.Mechanism == "" {
		return qos.MechanismFirstPrice
	}
	return s.Mechanism
}

func (t *Topology) validate() error {
	if t.Shards < 0 {
		return fmt.Errorf("%w: shards=%d", ErrBadTopology, t.Shards)
	}
	if len(t.Servers) == 0 {
		if t.Count <= 0 {
			return ErrNoTopology
		}
		if t.SpeedMin < 0 || t.SpeedMax < t.SpeedMin || t.CostMin < 0 || t.CostMax < t.CostMin {
			return fmt.Errorf("%w: speed [%v,%v] cost [%v,%v]", ErrBadTopology,
				t.SpeedMin, t.SpeedMax, t.CostMin, t.CostMax)
		}
		if t.Sick < 0 || t.Sick > t.Count {
			return fmt.Errorf("%w: sick=%d of count=%d", ErrBadTopology, t.Sick, t.Count)
		}
		if t.Sick > 0 && t.Chaos == nil {
			return fmt.Errorf("%w: sick servers need a chaos profile", ErrBadTopology)
		}
	}
	for i, sv := range t.Servers {
		if sv.Name == "" || sv.PEs < 1 {
			return fmt.Errorf("%w: server %d (%q, %d PEs)", ErrBadTopology, i, sv.Name, sv.PEs)
		}
	}
	if _, err := schedulerFactory(t.Scheduler); err != nil {
		return err
	}
	if _, err := makeBidder(t.Bidder); err != nil {
		return err
	}
	for _, sv := range t.Servers {
		if _, err := schedulerFactory(sv.Scheduler); err != nil {
			return err
		}
		if _, err := makeBidder(sv.Bidder); err != nil {
			return err
		}
	}
	return nil
}

// machines materializes the fleet: explicit servers verbatim, generated
// servers drawn deterministically from the scenario seed (speeds and
// faucet prices uniform over their ranges). The returned specs are in
// serving order; sick-profile assignment (the last Topology.Sick) is the
// caller's concern because only the live grid can inject faults.
func (s *Spec) machines() ([]machineSpec, error) {
	t := &s.Topology
	apps := t.Apps
	if len(apps) == 0 {
		apps = []string{"synth"}
	}
	var out []machineSpec
	if len(t.Servers) > 0 {
		for _, sv := range t.Servers {
			m := machineSpec{
				Spec: machine.Spec{
					Name: sv.Name, NumPE: sv.PEs, MemPerPE: sv.MemPerPE,
					CPUType: "x86", Speed: sv.Speed, CostRate: sv.CostRate,
				},
				Scheduler: pick(sv.Scheduler, t.Scheduler),
				Bidder:    pick(sv.Bidder, t.Bidder),
				Apps:      apps,
				Chaos:     sv.Chaos,
			}
			if len(sv.Apps) > 0 {
				m.Apps = sv.Apps
			}
			if m.Spec.MemPerPE == 0 {
				m.Spec.MemPerPE = 2048
			}
			if m.Spec.Speed == 0 {
				m.Spec.Speed = 1
			}
			out = append(out, m)
		}
	} else {
		rng := sim.NewRNG(s.Seed ^ 0xfa0ce75) // independent of traffic streams
		pe := t.PEs
		if pe == 0 {
			pe = 32
		}
		mem := t.MemPerPE
		if mem == 0 {
			mem = 2048
		}
		speedLo, speedHi := t.SpeedMin, t.SpeedMax
		if speedLo == 0 && speedHi == 0 {
			speedLo, speedHi = 1, 1
		}
		costLo, costHi := t.CostMin, t.CostMax
		if costLo == 0 && costHi == 0 {
			costLo, costHi = 0.01, 0.01
		}
		for i := 0; i < t.Count; i++ {
			speed := speedLo
			if speedHi > speedLo {
				speed = rng.Range(speedLo, speedHi)
			}
			cost := costLo
			if costHi > costLo {
				cost = rng.Range(costLo, costHi)
			}
			m := machineSpec{
				Spec: machine.Spec{
					Name: fmt.Sprintf("srv-%02d", i), NumPE: pe, MemPerPE: mem,
					CPUType: "x86", Speed: speed, CostRate: cost,
				},
				Scheduler: t.Scheduler,
				Bidder:    t.Bidder,
				Apps:      apps,
			}
			if t.Sick > 0 && i >= t.Count-t.Sick {
				m.Chaos = t.Chaos
			}
			out = append(out, m)
		}
	}
	for i := range out {
		if err := out[i].Spec.Validate(); err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
	}
	return out, nil
}

// machineSpec is one materialized server: hardware plus strategy names.
type machineSpec struct {
	Spec      machine.Spec
	Scheduler string
	Bidder    string
	Apps      []string
	Chaos     *ChaosProfile
}

func pick(own, inherited string) string {
	if own != "" {
		return own
	}
	return inherited
}

// schedulerFactory resolves a scheduler strategy name ("" =
// equipartition).
func schedulerFactory(name string) (scheduler.Factory, error) {
	f, err := scheduler.ByName(name)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnknownName, err)
	}
	return f, nil
}

// makeBidder resolves a bid-generator strategy name ("" = baseline).
// Weather and history bidders are built without a source; the gridsim
// executor wires them to the simulated grid and the live-grid executor
// to the Central Server's weather/history endpoints.
func makeBidder(name string) (bidding.Generator, error) {
	g, err := bidding.ByName(name)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnknownName, err)
	}
	return g, nil
}

// Load reads and validates a scenario spec from a JSON file.
func Load(path string) (*Spec, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: read: %w", err)
	}
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parse %s: %w", path, err)
	}
	if s.Name == "" {
		s.Name = path
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}
