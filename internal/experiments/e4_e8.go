package experiments

import (
	"fmt"

	"faucets/internal/accounting"
	"faucets/internal/bidding"
	"faucets/internal/gridsim"
	"faucets/internal/scheduler"
	"faucets/internal/workload"
)

// E4BidStrategies compares the paper's two implemented bid-generation
// algorithms (§5.2) head to head on the same grid — two servers run the
// baseline multiplier-1.0 strategy and two run the utilization-linear
// strategy k(1−α)…k(1+β) — plus homogeneous control runs and the (α, β)
// risk-parameter ablation.
func E4BidStrategies(seed uint64) *Table {
	t := &Table{
		ID:    "E4",
		Title: "bid strategies: baseline (x1.0) vs utilization-linear k(1-a)..k(1+b)",
		Claim: "load-sensitive pricing discounts idle machines to win jobs and charges premiums when busy, raising revenue per job at load",
	}
	spec := workload.Default(seed, 200, 2.5)
	spec.MaxPE = 24
	spec.MinWork = 100
	spec.MaxWork = 1200
	trace := mustTrace(spec)

	utilization := func() bidding.Generator { return bidding.NewUtilization() }
	runSim(gridsim.Config{Servers: append(
		fleet(24, nil, "base-1", "base-2"), fleet(24, utilization, "util-1", "util-2")...,
	)}, trace, func(mixed *gridsim.Result) {
		baseRev := totalRevenue(mixed, "base-1", "base-2")
		utilRev := totalRevenue(mixed, "util-1", "util-2")
		baseUtil := (mixed.Utilization["base-1"] + mixed.Utilization["base-2"]) / 2
		utilUtil := (mixed.Utilization["util-1"] + mixed.Utilization["util-2"]) / 2
		t.Rows = append(t.Rows,
			Row{Label: "mixed: baseline pair", Cols: []Col{
				V("revenue", baseRev), V("utilization", baseUtil),
			}},
			Row{Label: "mixed: utilization pair", Cols: []Col{
				V("revenue", utilRev), V("utilization", utilUtil),
			}},
		)
	})

	// Homogeneous control runs: the whole grid on one strategy.
	for _, c := range []struct {
		label string
		gen   func() bidding.Generator
	}{
		{"all-baseline", func() bidding.Generator { return bidding.Baseline{} }},
		{"all-utilization", utilization},
		{"all-history", func() bidding.Generator { return bidding.NewHistory(nil) }},
	} {
		runSim(gridsim.Config{Servers: fleet(24, c.gen, "s1", "s2", "s3", "s4")}, trace, func(res *gridsim.Result) {
			t.Rows = append(t.Rows, Row{Label: c.label, Cols: []Col{
				V("revenue", totalRevenue(res)),
				V("mean_multiplier", res.Metrics.S("bid_multiplier").Mean()),
				V("mean_resp_s", meanResp(res)),
				V("rejected", float64(res.Rejected)),
			}})
		})
	}

	// Ablation: risk parameters (α discount, β premium).
	for _, ab := range []struct{ alpha, beta float64 }{
		{0.0, 0.0}, {0.5, 2.0}, {0.9, 4.0},
	} {
		gen := func() bidding.Generator {
			return &bidding.Utilization{K: 1, Alpha: ab.alpha, Beta: ab.beta}
		}
		runSim(gridsim.Config{Servers: fleet(24, gen, "s1", "s2", "s3", "s4")}, trace, func(res *gridsim.Result) {
			t.Rows = append(t.Rows, Row{
				Label: fmt.Sprintf("ablation a=%.1f b=%.1f", ab.alpha, ab.beta),
				Cols: []Col{
					V("revenue", totalRevenue(res)),
					V("mean_multiplier", res.Metrics.S("bid_multiplier").Mean()),
				},
			})
		})
	}
	return t
}

// E5PayoffAdmission tests §4.1's admission rule — "the payoff from the
// new job must at least compensate for the loss… or the job must be
// rejected" — by running a deadline-heavy workload through the
// profit-aware scheduler against accept-everything equipartitioning and
// rigid FCFS, and sweeping the Gantt lookahead ablation.
func E5PayoffAdmission(seed uint64) *Table {
	t := &Table{
		ID:    "E5",
		Title: "payoff-aware admission vs accept-all under soft/hard deadlines",
		Claim: "profit-aware admission rejects payoff-destroying jobs and realizes more total payoff than accepting everything",
	}
	spec := workload.Default(seed, 150, 4)
	spec.MaxPE = 32
	spec.MinWork = 200
	spec.MaxWork = 2500
	spec.DeadlineFraction = 1.0
	spec.DeadlineTightness = 1.5 // tight deadlines: overcommitment hurts
	trace := mustTrace(spec)

	cases := []struct {
		label    string
		factory  scheduler.Factory
		schedCfg scheduler.Config
	}{
		{"fcfs accept-all", strategy("fcfs"), scheduler.Config{}},
		{"equipartition accept-all", strategy("equipartition"), scheduler.Config{}},
		{"profit lookahead=0", strategy("profit"), scheduler.Config{}},
		{"profit lookahead=600s", strategy("profit"), scheduler.Config{Lookahead: 600}},
		{"profit lookahead=3600s", strategy("profit"), scheduler.Config{Lookahead: 3600}},
	}
	for _, c := range cases {
		runSim(gridsim.Config{
			Servers:  []gridsim.ServerConfig{{Spec: refSpec("m", 64), NewScheduler: c.factory}},
			SchedCfg: c.schedCfg,
		}, trace, func(res *gridsim.Result) {
			t.Rows = append(t.Rows, Row{Label: c.label, Cols: []Col{
				V("total_payoff", res.Metrics.S("payoff").Sum()),
				V("met", float64(res.Metrics.C("deadline.met").Value())),
				V("missed", float64(res.Metrics.C("deadline.missed").Value())),
				V("rejected", float64(res.Rejected)),
				V("utilization", res.Utilization["m"]),
			}})
		})
	}
	return t
}

// E6Bartering reproduces §5.5.3: collaborating clusters share resources
// through credits, each user's jobs trying the Home Cluster first. An
// overloaded home cluster offloads to its helpers and pays credits; the
// no-sharing baseline locks users to their home.
func E6Bartering(seed uint64) *Table {
	t := &Table{
		ID:    "E6",
		Title: "bartering: home-cluster-first with credit transfers vs no sharing",
		Claim: "overloaded clusters offload to collaborators, paying credits; response times drop without cash changing hands",
	}
	spec := workload.Default(seed, 150, 2)
	spec.MaxPE = 16
	spec.MinWork = 100
	spec.MaxWork = 900
	trace := mustTrace(spec)

	servers := append(fleet(8, nil, "overloaded"), fleet(48, nil, "helper-1", "helper-2")...)
	homeOf := map[string]string{}
	for u := 0; u < 7; u++ {
		homeOf[fmt.Sprintf("user-%d", u)] = "overloaded"
	}
	lockedAccess := map[string][]string{}
	for u := range homeOf {
		lockedAccess[u] = []string{"overloaded"}
	}
	runSim(gridsim.Config{
		Servers: servers, Mode: accounting.Barter, HomeOf: homeOf, Access: lockedAccess,
	}, trace, func(noShare *gridsim.Result) {
		t.Rows = append(t.Rows, Row{Label: "no-sharing", Cols: []Col{
			V("mean_resp_s", meanResp(noShare)),
			V("rejected", float64(noShare.Rejected)),
			V("home_util", noShare.Utilization["overloaded"]),
			V("helper_util", (noShare.Utilization["helper-1"]+noShare.Utilization["helper-2"])/2),
		}})
	})
	runSim(gridsim.Config{
		Servers: servers, Mode: accounting.Barter, HomeOf: homeOf, HomeFirst: true,
		InitialCredits: map[string]float64{"overloaded": 1e6},
	}, trace, func(shared *gridsim.Result) {
		t.Rows = append(t.Rows, Row{Label: "bartering", Cols: []Col{
			V("mean_resp_s", meanResp(shared)),
			V("rejected", float64(shared.Rejected)),
			V("home_util", shared.Utilization["overloaded"]),
			V("helper_util", (shared.Utilization["helper-1"]+shared.Utilization["helper-2"])/2),
			V("helper_credits", shared.Credits["helper-1"]+shared.Credits["helper-2"]),
			V("home_credits_spent", 1e6-shared.Credits["overloaded"]),
		}})
	})
	return t
}

// E7BidScalability measures §5.1/§5.3: broadcast request-for-bids cost
// versus grid size, with and without the Central Server's static
// feasibility filters. "We expect this scheme to scale to reasonably
// large grids (consisting of hundreds of Compute Servers)."
func E7BidScalability(seed uint64) *Table {
	t := &Table{
		ID:    "E7",
		Title: "request-for-bids message cost vs grid size, filter on/off",
		Claim: "messages grow linearly with broadcast width; FS-side static filtering removes infeasible servers from the broadcast",
	}
	for _, n := range []int{10, 50, 200, 1000} {
		spec := workload.Default(seed, 100, 60)
		spec.MaxPE = 64
		spec.MinWork = 50
		spec.MaxWork = 400
		trace := mustTrace(spec)
		var servers []gridsim.ServerConfig
		for i := 0; i < n; i++ {
			// Heterogeneous sizes: half the fleet is too small for large
			// jobs, giving the static filter something to screen.
			pe := 8
			if i%2 == 0 {
				pe = 64
			}
			servers = append(servers, gridsim.ServerConfig{Spec: refSpec(fmt.Sprintf("s%03d", i), pe)})
		}
		for _, filtered := range []bool{false, true} {
			label := fmt.Sprintf("n=%d broadcast", n)
			if filtered {
				label = fmt.Sprintf("n=%d filtered", n)
			}
			runSim(gridsim.Config{Servers: servers, FilterFeasible: filtered}, trace, func(res *gridsim.Result) {
				t.Rows = append(t.Rows, Row{Label: label, Cols: []Col{
					V("bid_messages", float64(res.Metrics.C("messages.bid_req").Value())),
					V("msgs_per_job", float64(res.Metrics.C("messages.bid_req").Value())/100),
					V("screened", float64(res.Metrics.C("filter.screened").Value())),
					V("placed", float64(res.Placed)),
				}})
			})
		}
	}
	return t
}

// E8TwoPhaseCommit quantifies §5.3's argument for firm commitment:
// "since many bid-requests may be in progress at the same time, a two
// phase protocol will be needed to get a firm commitment from the
// selected Compute Server (which may have received a more lucrative job
// in between)."
func E8TwoPhaseCommit(seed uint64) *Table {
	t := &Table{
		ID:    "E8",
		Title: "two-phase commit vs single-phase award under contention",
		Claim: "without firm commitment, concurrent clients chase the same best bid and placements fail; two-phase awards fall back and fill the grid",
	}
	spec := workload.Default(seed, 60, 0.001) // near-simultaneous arrivals
	spec.MaxPE = 4
	spec.MinWork = 500
	spec.MaxWork = 1000
	spec.AdaptiveFraction = 0
	spec.DeadlineFraction = 0
	trace := mustTrace(spec)

	// Servers run the profit scheduler with zero lookahead: a job is
	// admitted only if it can start immediately, so a server whose
	// processors were promised to an earlier commit refuses later ones —
	// the "more lucrative job in between" of §5.3. Distinct prices make
	// every client chase the same best bid.
	mkServers := func() []gridsim.ServerConfig {
		var out []gridsim.ServerConfig
		for i := 0; i < 6; i++ {
			sp := refSpec(fmt.Sprintf("s%d", i), 4)
			sp.CostRate = 0.01 * float64(i+1)
			out = append(out, gridsim.ServerConfig{Spec: sp, NewScheduler: strategy("profit")})
		}
		return out
	}
	// All 60 solicitations land inside the one-second commit window, so
	// every client holds bids computed from the same (idle) snapshot.
	for _, c := range []struct {
		label       string
		singlePhase bool
	}{{"two-phase", false}, {"single-phase", true}} {
		runSim(gridsim.Config{Servers: mkServers(), CommitDelay: 1.0, SinglePhase: c.singlePhase}, trace, func(res *gridsim.Result) {
			t.Rows = append(t.Rows, Row{Label: c.label, Cols: []Col{
				V("placed", float64(res.Placed)),
				V("rejected", float64(res.Rejected)),
				V("commit_refused", float64(res.Metrics.C("commit.refused").Value()+res.Metrics.C("commit.declined").Value())),
				V("mean_attempts", res.Metrics.S("award_attempts").Mean()),
			}})
		})
	}
	return t
}
