package scenario

import (
	"fmt"
	"sync"

	"faucets/internal/gridsim"
	"faucets/internal/sim"
)

// RunSim executes the scenario on the discrete-event simulator
// (internal/gridsim). It is fast — thousands of virtual seconds in
// wall milliseconds — and fully deterministic: the same spec produces
// a byte-identical ScenarioReport, which is what makes gridsim the
// backend CI pins and the right tool for mechanism comparisons.
//
// Semantics that differ from the live grid, by construction:
//   - Chaos profiles are ignored (there is no wire to fault); only the
//     live-grid executor exercises them.
//   - Time-to-contract is exactly Spec.CommitDelay for every placed job
//     (the simulator separates solicit from commit by that constant).
//   - Settlement is instantaneous at job finish, so SettleLag is zero.
//
// A sweep of replays in one process regrows no per-job storage: each
// replay takes the working set of one before it from a pool and hands it
// back once its report is built. The report holds nothing of it.
func RunSim(s *Spec) (*ScenarioReport, error) {
	rp := replays.Get().(*replay)
	r, err := s.runSim(rp)
	replays.Put(rp)
	return r, err
}

// replay is one RunSim's working set: the trace and the simulator's
// per-job storage.
type replay struct {
	trace traceStore
	sim   gridsim.Storage
}

var replays = sync.Pool{New: func() any { return new(replay) }}

func (s *Spec) runSim(rp *replay) (*ScenarioReport, error) {
	trace, err := s.generateTrace(&rp.trace)
	if err != nil {
		return nil, err
	}
	machines, err := s.machines()
	if err != nil {
		return nil, err
	}
	cfg := gridsim.Config{
		CommitDelay: s.CommitDelay,
		Mechanism:   s.Mechanism,
	}
	for _, m := range machines {
		factory, err := schedulerFactory(m.Scheduler)
		if err != nil {
			return nil, err
		}
		bidder, err := makeBidder(m.Bidder)
		if err != nil {
			return nil, err
		}
		cfg.Servers = append(cfg.Servers, gridsim.ServerConfig{
			Spec:         m.Spec,
			NewScheduler: factory,
			Bidder:       bidder,
		})
	}
	res, err := rp.sim.Run(cfg, trace)
	if err != nil {
		return nil, fmt.Errorf("scenario: gridsim: %w", err)
	}
	return simReport(s, machines, res, len(trace.Items)), nil
}

func simReport(s *Spec, machines []machineSpec, res *gridsim.Result, jobs int) *ScenarioReport {
	r := &ScenarioReport{
		Scenario:  s.Name,
		Backend:   "gridsim",
		Mechanism: s.MechanismName(),
		Seed:      s.Seed,
		Servers:   len(machines),
		Jobs:      jobs,
		Submitted: jobs,
		Placed:    res.Placed,
		Rejected:  res.Rejected,
		Finished:  res.Finished,
		// Settlement is synchronous with completion in the simulator.
		Settled:              res.Finished,
		RevenuePerServer:     map[string]float64{},
		UtilizationPerServer: map[string]float64{},
		Counters:             map[string]float64{},
	}
	// Every placed job's time-to-contract is the configured commit
	// window (virtual seconds).
	r.TTC = Quantiles{N: res.Placed, P50: s.CommitDelay, P95: s.CommitDelay,
		P99: s.CommitDelay, Max: s.CommitDelay}
	if res.Placed == 0 {
		r.TTC = Quantiles{}
	}
	r.Response = seriesQuantiles(res.Metrics.S("response_time"))
	r.SettleLag = Quantiles{N: res.Finished}

	met := int(res.Metrics.C("deadline.met").Value())
	missed := int(res.Metrics.C("deadline.missed").Value())
	r.DeadlineMet, r.DeadlineMissed = met, missed
	if met+missed > 0 {
		r.DeadlineMissRate = float64(missed) / float64(met+missed)
	}

	totalPE := 0
	var busyPE float64
	for _, m := range machines {
		name := m.Spec.Name
		r.RevenuePerServer[name] = res.Revenue[name]
		r.Revenue += res.Revenue[name]
		r.UtilizationPerServer[name] = res.Utilization[name]
		totalPE += m.Spec.NumPE
		busyPE += res.Utilization[name] * float64(m.Spec.NumPE)
	}
	if totalPE > 0 {
		r.Utilization = busyPE / float64(totalPE)
	}
	for name, c := range res.Metrics.Counters {
		r.Counters["sim."+name] = float64(c.Value())
	}
	return r
}

func seriesQuantiles(s *sim.Series) Quantiles {
	return Quantiles{
		N:   s.N(),
		P50: s.Percentile(50),
		P95: s.Percentile(95),
		P99: s.Percentile(99),
		Max: s.Max(),
	}
}
