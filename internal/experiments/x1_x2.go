package experiments

import (
	"fmt"

	"faucets/internal/bidding"
	"faucets/internal/gridsim"
	"faucets/internal/job"
	"faucets/internal/machine"
	"faucets/internal/qos"
	"faucets/internal/scheduler"
	"faucets/internal/sim"
	"faucets/internal/workload"
)

// X1Preemption exercises the checkpoint/restart machinery the paper
// describes but defers ("jobs may also have to be check-pointed and
// restarted at a later point in time", §4.1; the intranet context of
// §5.5.4 allows "pre-emption of low priority jobs … with automatic
// restart from a checkpoint later"). A machine saturated by rigid
// low-value jobs receives a stream of urgent high-payoff arrivals; we
// compare the profit scheduler with and without preemption.
func X1Preemption(seed uint64) *Table {
	t := &Table{
		ID:    "X1",
		Title: "extension: checkpoint preemption for urgent high-payoff arrivals",
		Claim: "preempting low-value jobs (checkpoint + automatic restart) lets urgent jobs meet deadlines the non-preemptive scheduler must decline",
	}
	for _, preempt := range []bool{false, true} {
		spec := machine.Spec{Name: "m", NumPE: 64, MemPerPE: 2048, CPUType: "x86", Speed: 1, CostRate: 0.01}
		s := scheduler.NewProfit(spec, scheduler.Config{Preempt: preempt, Lookahead: 0})
		rng := sim.NewRNG(seed)

		// Background: rigid low-value fillers arriving steadily.
		// Urgent: every ~500s a rich, tight-deadline job needs most of
		// the machine.
		now := 0.0
		var urgentJobs, fillerJobs []*job.Job
		nextFiller, nextUrgent := 0.0, 250.0
		idx := 0
		for now < 5000 {
			// Advance to the next arrival.
			if nextFiller < nextUrgent {
				now = nextFiller
				s.Advance(now)
				pe := 16 + rng.Intn(16)
				f := job.New(job.ID(fmt.Sprintf("fill-%d", idx)), "u", &qos.Contract{
					App: "fill", MinPE: pe, MaxPE: pe, Work: float64(pe) * rng.Range(800, 1500),
					Payoff: qos.Payoff{Soft: 1e6, Hard: 2e6, AtSoft: 1, AtHard: 0.5},
				}, now)
				if s.Submit(now, f) {
					fillerJobs = append(fillerJobs, f)
				}
				nextFiller = now + rng.Range(100, 300)
			} else {
				now = nextUrgent
				s.Advance(now)
				u := job.New(job.ID(fmt.Sprintf("urgent-%d", idx)), "u", &qos.Contract{
					App: "urgent", MinPE: 48, MaxPE: 64, Work: 64 * 60,
					Payoff: qos.Payoff{Soft: 150, Hard: 300, AtSoft: 5000, AtHard: 1000, Penalty: 500},
				}, now)
				if s.Submit(now, u) {
					urgentJobs = append(urgentJobs, u)
				}
				nextUrgent = now + rng.Range(400, 700)
			}
			idx++
		}
		// Drain everything.
		for {
			ct, ok := s.NextCompletion(now)
			if !ok || ct > 1e7 {
				break
			}
			now = ct
			s.Advance(now)
		}
		var urgentMet, urgentAccepted int
		var payoff float64
		for _, u := range urgentJobs {
			urgentAccepted++
			if u.MetDeadline() {
				urgentMet++
			}
			payoff += u.Payout()
		}
		var fillerDone, checkpoints int
		for _, f := range fillerJobs {
			payoff += f.Payout()
			if f.State() == job.Finished {
				fillerDone++
			}
			checkpoints += f.Checkpoints()
		}
		label := "profit no-preempt"
		if preempt {
			label = "profit preempt"
		}
		t.Rows = append(t.Rows, Row{Label: label, Cols: []Col{
			V("urgent_accepted", float64(urgentAccepted)),
			V("urgent_met", float64(urgentMet)),
			V("fillers_finished", float64(fillerDone)),
			V("checkpoints", float64(checkpoints)),
			V("total_payoff", payoff),
		}})
	}

	// Grid-level ablation: with a second (subcontracted) server in the
	// grid, migration restarts preemption victims elsewhere (§4.1).
	spec := workload.Default(seed, 80, 30)
	spec.MaxPE = 32
	spec.MinWork = 500
	spec.MaxWork = 4000
	spec.DeadlineFraction = 1.0
	spec.DeadlineTightness = 1.5
	trace := mustTrace(spec)
	schedCfg := scheduler.Config{Preempt: true, Lookahead: 600}
	servers := fleet(32, nil, "primary", "subcontract")
	servers[0].Spec.CostRate, servers[1].Spec.CostRate = 0.001, 0.1
	servers[0].NewScheduler, servers[1].NewScheduler = strategy("profit"), strategy("profit")
	noMig := runSim(gridsim.Config{Servers: servers, SchedCfg: schedCfg}, trace)
	mig := runSim(gridsim.Config{Servers: servers, SchedCfg: schedCfg, MigrateAfter: 60}, trace)
	t.Rows = append(t.Rows,
		Row{Label: "grid preempt no-migrate", Cols: []Col{
			V("mean_resp_s", meanResp(noMig)),
			V("migrations", float64(noMig.Metrics.C("migrations").Value())),
			V("met", float64(noMig.Metrics.C("deadline.met").Value())),
		}},
		Row{Label: "grid preempt+migrate", Cols: []Col{
			V("mean_resp_s", meanResp(mig)),
			V("migrations", float64(mig.Metrics.C("migrations").Value())),
			V("met", float64(mig.Metrics.C("deadline.met").Value())),
		}},
	)
	return t
}

// X2GridWeather exercises the non-local bidding the paper sketches for
// future versions (§5.2, §5.2.1): bid generators consult the Faucets
// system's grid-weather reports (whole-grid utilization, recent contract
// prices). We compare a grid of weather-aware bidders with local-only
// utilization bidders and the flat baseline.
func X2GridWeather(seed uint64) *Table {
	t := &Table{
		ID:    "X2",
		Title: "extension: grid-weather (non-local) bidding vs local-only strategies",
		Claim: "global price/utilization information moves bids with market conditions rather than single-machine state",
	}
	spec := workload.Default(seed, 200, 2.5)
	spec.MaxPE = 24
	spec.MinWork = 100
	spec.MaxWork = 1200
	trace := mustTrace(spec)

	cases := []struct {
		label string
		gen   func() bidding.Generator
	}{
		{"baseline", func() bidding.Generator { return bidding.Baseline{} }},
		{"utilization", func() bidding.Generator { return bidding.NewUtilization() }},
		{"weather", func() bidding.Generator { return bidding.NewWeather(nil) }},
	}
	for _, c := range cases {
		res := runSim(gridsim.Config{Servers: fleet(24, c.gen, "s1", "s2", "s3", "s4")}, trace)
		t.Rows = append(t.Rows, Row{Label: c.label, Cols: []Col{
			V("revenue", totalRevenue(res)),
			V("mean_multiplier", res.Metrics.S("bid_multiplier").Mean()),
			V("mean_resp_s", meanResp(res)),
			V("placed", float64(res.Placed)),
		}})
	}
	return t
}
