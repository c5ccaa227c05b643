// Package bidding implements the bid-generation algorithms of paper §5.2.
// These run at individual Compute Servers and reflect each server's
// characteristics and its orientation to risk and profit.
//
// The paper implements two strategies, both reproduced here:
//
//   - Baseline: "always returns a multiplier of 1.0 if it can run the
//     job."
//   - Utilization: "returns a multiplier linearly interpolated between
//     k(1−α) and k(1+β) depending on what the average system utilization
//     is likely to be between the current time and the deadline of the
//     proposed job. k, α and β are parameters of this strategy (current
//     values we use are 1, 0.5 and 2.0)."
//
// The bid is converted to a Dollar amount by multiplying the CPU-seconds
// needed for the job by a normalized cost and the multiplier returned by
// the bidding algorithm.
//
// A third strategy, History, sketches the paper's §5.2.1 futures-style
// support: the multiplier tracks the average price of similar contracts
// in the recent past, pulled from the contract history the Faucets system
// maintains for bidders.
//
// The paper promises "a generic interface for the bid-generation
// algorithm, allowing other researchers to test their bid generation
// algorithms against each other" — that interface is Generator.
package bidding

import (
	"fmt"

	"faucets/internal/machine"
	"faucets/internal/qos"
)

// ServerState is the view of the local Compute Server a bid generator is
// given: enough to judge how busy the machine is over the period covered
// by the job, without coupling the generator to a scheduler
// implementation.
type ServerState struct {
	// NumPE is the machine size; UsedPE the currently busy processors.
	NumPE  int
	UsedPE int
	// QueuedWork is the total outstanding sequential work (CPU-seconds)
	// of admitted jobs, running and queued.
	QueuedWork float64
	// Speed is the machine's speed factor; CostRate its normalized $ per
	// CPU-second.
	Speed    float64
	CostRate float64
	// EstimatedCompletion is the scheduler's predicted completion time
	// for the proposed job (absolute, virtual seconds); CanRun means its
	// Submit at the same instant would admit the job.
	EstimatedCompletion float64
	CanRun              bool
}

// Estimator is the part of a Cluster Manager a bid is generated from.
type Estimator interface {
	EstimateCompletion(now float64, c *qos.Contract) (float64, bool)
	UsedPEs() int
}

// StateFor is the ServerState of a bid for c: the machine's spec, the
// scheduler's verdict on the contract, and the server's admitted-but-
// unfinished work. The live daemon and the simulated server both bid from
// this.
func StateFor(spec *machine.Spec, sched Estimator, now float64, c *qos.Contract, queuedWork float64) ServerState {
	est, canRun := sched.EstimateCompletion(now, c)
	return ServerState{
		NumPE:               spec.NumPE,
		UsedPE:              sched.UsedPEs(),
		QueuedWork:          queuedWork,
		Speed:               spec.Speed,
		CostRate:            spec.CostRate,
		EstimatedCompletion: est,
		CanRun:              canRun,
	}
}

// PostedState is the ServerState a directory listing supports — the
// static spec and the published busy-processor count, no scheduler — for
// PostedBid. canRun is the static screen's verdict.
func PostedState(spec *machine.Spec, usedPE int, canRun bool) ServerState {
	return ServerState{
		NumPE:    spec.NumPE,
		UsedPE:   usedPE,
		Speed:    spec.Speed,
		CostRate: spec.CostRate,
		CanRun:   canRun,
	}
}

// Bid is a priced offer to run a job, as relayed by the Faucets Daemon to
// the client.
type Bid struct {
	Server string `json:"server"`
	// Price is the Dollar (or Service-Unit) amount for the whole job.
	Price float64 `json:"price"`
	// Multiplier is the raw strategy output, recorded for analysis.
	Multiplier float64 `json:"multiplier"`
	// EstCompletion is the promised completion time (absolute seconds).
	EstCompletion float64 `json:"est_completion"`
	// ExpiresAt bounds how long the offer stands (two-phase commit uses
	// this to invalidate stale awards).
	ExpiresAt float64 `json:"expires_at"`
}

// Generator is the pluggable bid-generation interface. Implementations
// return the price multiplier for the proposed contract given the local
// server state and the current time; ok reports whether the server bids
// at all.
type Generator interface {
	// Name identifies the strategy for experiment reports.
	Name() string
	// Multiplier computes the bid multiplier. Returning ok == false
	// declines the job.
	Multiplier(now float64, c *qos.Contract, st ServerState) (m float64, ok bool)
}

// ByName returns a fresh generator of the named strategy; the empty name
// means baseline. Weather and history come without a source: the caller
// sets Weather.Source / History.View (gridsim wires a nil one to the
// simulated grid itself).
func ByName(name string) (Generator, error) {
	switch name {
	case "", "baseline":
		return Baseline{}, nil
	case "utilization":
		return NewUtilization(), nil
	case "weather":
		return NewWeather(nil), nil
	case "history":
		return NewHistory(nil), nil
	}
	return nil, fmt.Errorf("unknown bidder %q (want baseline, utilization, weather or history)", name)
}

// Price converts a multiplier into the quoted Dollar amount, exactly as
// the paper prescribes: CPU-seconds needed for the job × normalized cost
// × multiplier. The CPU-seconds are computed at the job's maximum
// processor count (the allocation the scheduler will aim for).
func Price(c *qos.Contract, st ServerState, multiplier float64) float64 {
	return c.CPUSeconds(c.MaxPE, st.Speed) * st.CostRate * multiplier
}

// MultiplierOf is Price read backwards: the multiplier at which a server
// of the given cost rate charged price for cpuSeconds — what the contract
// history of §5.2.1 records. Zero when either factor is unknown.
func MultiplierOf(price, cpuSeconds, costRate float64) float64 {
	if cpuSeconds > 0 && costRate > 0 {
		return price / (cpuSeconds * costRate)
	}
	return 0
}

// Baseline always bids multiplier 1.0 when the scheduler can run the job.
type Baseline struct{}

// Name implements Generator.
func (Baseline) Name() string { return "baseline" }

// Multiplier implements Generator.
func (Baseline) Multiplier(_ float64, _ *qos.Contract, st ServerState) (float64, bool) {
	if !st.CanRun {
		return 0, false
	}
	return 1.0, true
}

// Utilization is the paper's load-sensitive strategy. α and β express
// the server's risk orientation; k scales with the urgency of the job
// for the cluster.
type Utilization struct {
	K     float64 // urgency scale (paper default 1)
	Alpha float64 // discount when idle (paper default 0.5)
	Beta  float64 // premium when busy (paper default 2.0)
}

// NewUtilization returns the strategy with the paper's parameter values
// k=1, α=0.5, β=2.0.
func NewUtilization() *Utilization {
	return &Utilization{K: 1, Alpha: 0.5, Beta: 2.0}
}

// Name implements Generator.
func (u *Utilization) Name() string { return "utilization" }

// ForecastUtilization estimates the average system utilization between
// now and the proposed job's deadline: current busy processors decay as
// queued work drains, averaged over the window. With no deadline the
// horizon defaults to the time needed to drain the outstanding work.
func ForecastUtilization(now float64, c *qos.Contract, st ServerState) float64 {
	if st.NumPE == 0 {
		return 1
	}
	// Time to drain all queued work if the whole machine worked on it.
	drain := st.QueuedWork / (float64(st.NumPE) * st.Speed)
	horizon := drain
	if hd := c.HardDeadline(); hd > 0 {
		horizon = hd // deadlines are relative to submission ≈ now
	}
	if horizon <= 0 {
		return float64(st.UsedPE) / float64(st.NumPE)
	}
	// The machine stays at its current utilization while work remains,
	// then goes idle; average over the horizon.
	cur := float64(st.UsedPE) / float64(st.NumPE)
	busy := drain
	if busy > horizon {
		busy = horizon
	}
	return cur * busy / horizon
}

// Multiplier implements Generator: linear interpolation between k(1−α)
// at forecast utilization 0 and k(1+β) at forecast utilization 1.
func (u *Utilization) Multiplier(now float64, c *qos.Contract, st ServerState) (float64, bool) {
	if !st.CanRun {
		return 0, false
	}
	util := ForecastUtilization(now, c, st)
	lo := u.K * (1 - u.Alpha)
	hi := u.K * (1 + u.Beta)
	return lo + util*(hi-lo), true
}

// HistoryRecord is one settled contract, as kept by the Faucets system's
// contract history (§5.2.1).
type HistoryRecord struct {
	Time       float64
	App        string
	MinPE      int
	MaxPE      int
	Multiplier float64
}

// HistoryView provides recent settled contracts similar to a proposed
// one. The Faucets Central Server implements this; simulations can stub
// it.
type HistoryView interface {
	// SimilarContracts returns multipliers of recently settled contracts
	// comparable to c (e.g. same processor-count bucket), newest first.
	SimilarContracts(now float64, c *qos.Contract, limit int) []HistoryRecord
}

// History bids the recent market price for similar contracts: the mean
// multiplier of the last Window settled contracts, floored at Floor so a
// cold market cannot drive bids to zero, and ceilinged at Cap as the
// regulatory bound the paper suggests for pay-for-use systems (§5.5.1:
// "limits on how far the bids can be from some notion of normal price").
type History struct {
	View   HistoryView
	Window int
	Floor  float64
	Cap    float64
	// Fallback prices jobs when no history exists.
	Fallback Generator
}

// NewHistory returns a history-driven strategy with a 20-contract window
// and bounds [0.25, 4.0], falling back to the utilization strategy.
func NewHistory(view HistoryView) *History {
	return &History{View: view, Window: 20, Floor: 0.25, Cap: 4.0, Fallback: NewUtilization()}
}

// Name implements Generator.
func (h *History) Name() string { return "history" }

// Multiplier implements Generator.
func (h *History) Multiplier(now float64, c *qos.Contract, st ServerState) (float64, bool) {
	if !st.CanRun {
		return 0, false
	}
	recs := h.View.SimilarContracts(now, c, h.Window)
	if len(recs) == 0 {
		return h.Fallback.Multiplier(now, c, st)
	}
	var sum float64
	for _, r := range recs {
		sum += r.Multiplier
	}
	m := sum / float64(len(recs))
	if m < h.Floor {
		m = h.Floor
	}
	if m > h.Cap {
		m = h.Cap
	}
	return m, true
}

// PostedMultiplier is the commodity-market price schedule: a server
// posts list price when idle and up to double when saturated,
// 1 + used/total. Unlike the auction strategies it is a pure function
// of the server's published weather — no contract round trip — so a
// buyer can price any server from the directory listing alone.
func PostedMultiplier(usedPE, numPE int) float64 {
	if numPE <= 0 {
		return 1
	}
	u := float64(usedPE) / float64(numPE)
	if u < 0 {
		u = 0
	} else if u > 1 {
		u = 1
	}
	return 1 + u
}

// PostedBid assembles the posted-price offer a server's published state
// implies for a contract: PostedMultiplier over the published weather,
// priced by the standard schedule. CanRun false (the static feasibility
// screen) declines. A zero EstimatedCompletion is filled with
// now + ExecTime at MaxPE — the optimistic quote a directory listing
// supports. Posted offers carry no expiry: the post stands until the
// server's published price changes.
func PostedBid(server string, now float64, c *qos.Contract, st ServerState) (Bid, bool) {
	if !st.CanRun {
		return Bid{}, false
	}
	m := PostedMultiplier(st.UsedPE, st.NumPE)
	est := st.EstimatedCompletion
	if est == 0 {
		est = now + c.ExecTime(c.MaxPE, st.Speed)
	}
	return Bid{
		Server:        server,
		Price:         Price(c, st, m),
		Multiplier:    m,
		EstCompletion: est,
	}, true
}

// Make assembles a full Bid from a generator's multiplier, or reports
// that the server declines. Validity bounds the offer to now+validFor.
func Make(g Generator, server string, now float64, c *qos.Contract, st ServerState, validFor float64) (Bid, bool) {
	m, ok := g.Multiplier(now, c, st)
	if !ok {
		return Bid{}, false
	}
	if m < 0 {
		m = 0
	}
	return Bid{
		Server:        server,
		Price:         Price(c, st, m),
		Multiplier:    m,
		EstCompletion: st.EstimatedCompletion,
		ExpiresAt:     now + validFor,
	}, true
}

func (b Bid) String() string {
	return fmt.Sprintf("bid{%s $%.2f x%.2f done@%.0f}", b.Server, b.Price, b.Multiplier, b.EstCompletion)
}
