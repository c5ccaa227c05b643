package gridsim

import (
	"fmt"
	"math"
	"testing"

	"faucets/internal/accounting"

	"faucets/internal/bidding"
	"faucets/internal/db"
	"faucets/internal/machine"
	"faucets/internal/market"
	"faucets/internal/qos"
	"faucets/internal/scheduler"
	"faucets/internal/workload"
)

func spec(name string, pe int) machine.Spec {
	return machine.Spec{Name: name, NumPE: pe, MemPerPE: 1024, CPUType: "x86", Speed: 1.0, CostRate: 0.01}
}

func fcfsFactory(sp machine.Spec, c scheduler.Config) scheduler.Scheduler {
	return scheduler.NewFCFS(sp, c)
}

func equiFactory(sp machine.Spec, c scheduler.Config) scheduler.Scheduler {
	return scheduler.NewEquipartition(sp, c)
}

func profitFactory(sp machine.Spec, c scheduler.Config) scheduler.Scheduler {
	return scheduler.NewProfit(sp, c)
}

func smallTrace(seed uint64, jobs int, gap float64) *workload.Trace {
	s := workload.Default(seed, jobs, gap)
	s.MaxPE = 16
	s.MinWork = 50
	s.MaxWork = 500
	tr, err := workload.Generate(s)
	if err != nil {
		panic(err)
	}
	return tr
}

func TestRunPlacesAndFinishesJobs(t *testing.T) {
	cfg := Config{
		Servers: []ServerConfig{{Spec: spec("s1", 32)}, {Spec: spec("s2", 32)}},
	}
	tr := smallTrace(1, 50, 20)
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Placed == 0 {
		t.Fatal("no jobs placed")
	}
	if res.Placed+res.Rejected != 50 {
		t.Fatalf("placed %d + rejected %d != 50", res.Placed, res.Rejected)
	}
	if res.Finished != res.Placed {
		t.Fatalf("finished %d != placed %d (jobs lost)", res.Finished, res.Placed)
	}
	if res.End <= 0 {
		t.Fatal("simulation did not advance")
	}
	if res.Metrics.S("response_time").N() != res.Finished {
		t.Fatal("response time samples missing")
	}
}

func TestRunNoServers(t *testing.T) {
	if _, err := Run(Config{}, smallTrace(1, 1, 1)); err == nil {
		t.Fatal("empty grid accepted")
	}
}

func TestRunInvalidSpec(t *testing.T) {
	cfg := Config{Servers: []ServerConfig{{Spec: machine.Spec{Name: "bad", NumPE: 0, Speed: 1}}}}
	if _, err := Run(cfg, smallTrace(1, 1, 1)); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	cfg := Config{Servers: []ServerConfig{{Spec: spec("s1", 32)}}}
	tr := smallTrace(9, 40, 10)
	a, _ := Run(cfg, tr)
	b, _ := Run(cfg, tr)
	if a.Placed != b.Placed || a.Finished != b.Finished ||
		a.Metrics.S("response_time").Mean() != b.Metrics.S("response_time").Mean() {
		t.Fatal("same config+trace produced different results")
	}
}

// E1/E3 shape: adaptive scheduling yields mean response times no worse
// than rigid FCFS on a malleable workload at high load.
func TestAdaptiveBeatsRigidResponseTime(t *testing.T) {
	tr := smallTrace(5, 120, 4) // hot load on one 32-PE machine
	rigid, err := Run(Config{Servers: []ServerConfig{{Spec: spec("s", 32), NewScheduler: fcfsFactory}}}, tr)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := Run(Config{Servers: []ServerConfig{{Spec: spec("s", 32), NewScheduler: equiFactory}}}, tr)
	if err != nil {
		t.Fatal(err)
	}
	rr := rigid.Metrics.S("response_time").Mean()
	ar := adaptive.Metrics.S("response_time").Mean()
	if ar > rr {
		t.Fatalf("adaptive mean response %v worse than rigid %v", ar, rr)
	}
}

// E2 shape: restricting each user to a single server leaves jobs
// rejected or slowed while open market access serves everyone.
func TestExternalFragmentation(t *testing.T) {
	servers := []ServerConfig{{Spec: spec("s1", 16)}, {Spec: spec("s2", 16)}, {Spec: spec("s3", 16)}}
	tr := smallTrace(13, 90, 3)
	// Users 0..6 all locked to s1: the other two servers idle.
	access := map[string][]string{}
	for u := 0; u < 7; u++ {
		access[fmt.Sprintf("user-%d", u)] = []string{"s1"}
	}
	restricted, err := Run(Config{Servers: servers, Access: access}, tr)
	if err != nil {
		t.Fatal(err)
	}
	open, err := Run(Config{Servers: servers}, tr)
	if err != nil {
		t.Fatal(err)
	}
	rResp := restricted.Metrics.S("response_time").Mean()
	oResp := open.Metrics.S("response_time").Mean()
	if oResp >= rResp {
		t.Fatalf("open market response %v not better than restricted %v", oResp, rResp)
	}
	// The locked-out servers actually idled.
	if restricted.Utilization["s2"] != 0 || restricted.Utilization["s3"] != 0 {
		t.Fatalf("restricted run used forbidden servers: %v", restricted.Utilization)
	}
	if open.Utilization["s2"] == 0 {
		t.Fatal("open run never used s2")
	}
}

// E4 shape: the utilization bidder prices busy periods higher, earning
// at least the baseline's revenue per unit work at saturation while
// discounting idle machines.
func TestUtilizationBidderAdjustsPrices(t *testing.T) {
	tr := smallTrace(21, 80, 5)
	run := func(gen bidding.Generator) *Result {
		res, err := Run(Config{Servers: []ServerConfig{
			{Spec: spec("s1", 24), Bidder: gen},
			{Spec: spec("s2", 24), Bidder: gen},
		}}, tr)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(bidding.Baseline{})
	util := run(bidding.NewUtilization())
	bm := base.Metrics.S("bid_multiplier").Mean()
	if math.Abs(bm-1.0) > 1e-9 {
		t.Fatalf("baseline mean multiplier %v, want 1.0", bm)
	}
	um := util.Metrics.S("bid_multiplier")
	if um.Percentile(0) >= um.Max() {
		t.Fatal("utilization bidder never varied its multiplier")
	}
	if um.Percentile(0) < 0.5-1e-9 || um.Max() > 3.0+1e-9 {
		t.Fatalf("utilization multiplier out of [0.5, 3]: [%v, %v]", um.Percentile(0), um.Max())
	}
}

// E6 shape: bartering transfers credits from overloaded home clusters to
// helpers, and the system total stays at the injected amount.
func TestBarteringCreditsFlow(t *testing.T) {
	servers := []ServerConfig{
		{Spec: spec("home", 8)},
		{Spec: spec("helper", 64)},
	}
	tr := smallTrace(31, 60, 2) // far more work than "home" can take alone
	homeOf := map[string]string{}
	for u := 0; u < 7; u++ {
		homeOf[fmt.Sprintf("user-%d", u)] = "home"
	}
	res, err := Run(Config{
		Servers:        servers,
		Mode:           2, // accounting.Barter
		HomeOf:         homeOf,
		HomeFirst:      true,
		InitialCredits: map[string]float64{"home": 1e6},
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Credits["helper"] <= 0 {
		t.Fatalf("helper earned no credits: %v", res.Credits)
	}
	if res.Credits["home"] >= 1e6 {
		t.Fatal("home cluster spent nothing despite offloading")
	}
	var total float64
	for _, c := range res.Credits {
		total += c
	}
	if math.Abs(total-1e6) > 1e-6 {
		t.Fatalf("credit conservation violated: total=%v", total)
	}
}

// E8 shape: with contention for scarce capacity, single-phase awards
// fail where two-phase awards fall back and place the job.
func TestTwoPhaseOutplacesSinglePhase(t *testing.T) {
	// Tiny servers, simultaneous arrivals: the cheapest server gets
	// oversubscribed instantly.
	mkServers := func() []ServerConfig {
		var out []ServerConfig
		for i := 0; i < 4; i++ {
			sp := spec(fmt.Sprintf("s%d", i), 4)
			sp.CostRate = 0.01 * float64(i+1) // distinct prices
			out = append(out, ServerConfig{Spec: sp, NewScheduler: fcfsFactory})
		}
		return out
	}
	s := workload.Default(3, 40, 0.001) // near-simultaneous
	s.MaxPE = 4
	s.MinWork = 400
	s.MaxWork = 800
	s.AdaptiveFraction = 0
	s.DeadlineFraction = 0
	tr, _ := workload.Generate(s)

	two, err := Run(Config{Servers: mkServers()}, tr)
	if err != nil {
		t.Fatal(err)
	}
	one, err := Run(Config{Servers: mkServers(), SinglePhase: true}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if two.Placed < one.Placed {
		t.Fatalf("two-phase placed %d < single-phase %d", two.Placed, one.Placed)
	}
	if two.Metrics.S("award_attempts").Mean() < 1 {
		t.Fatal("award attempts not recorded")
	}
}

// E7 shape: bid-request message volume grows linearly with broadcast
// width.
func TestMessageCountScalesWithServers(t *testing.T) {
	counts := map[int]uint64{}
	for _, n := range []int{2, 8} {
		var servers []ServerConfig
		for i := 0; i < n; i++ {
			servers = append(servers, ServerConfig{Spec: spec(fmt.Sprintf("s%d", i), 64)})
		}
		res, err := Run(Config{Servers: servers}, smallTrace(17, 30, 50))
		if err != nil {
			t.Fatal(err)
		}
		counts[n] = res.Metrics.C("messages.bid_req").Value()
	}
	if counts[8] != 4*counts[2] {
		t.Fatalf("messages: 2 servers → %d, 8 servers → %d; want exact 4x", counts[2], counts[8])
	}
}

func TestDeadlinePayoffRecorded(t *testing.T) {
	s := workload.Default(11, 40, 10)
	s.MaxPE = 16
	s.DeadlineFraction = 1.0
	tr, _ := workload.Generate(s)
	res, err := Run(Config{Servers: []ServerConfig{{Spec: spec("s", 64)}}}, tr)
	if err != nil {
		t.Fatal(err)
	}
	met := res.Metrics.C("deadline.met").Value()
	missed := res.Metrics.C("deadline.missed").Value()
	if met+missed != uint64(res.Finished) {
		t.Fatalf("deadline accounting %d+%d != finished %d", met, missed, res.Finished)
	}
	if res.Metrics.S("payoff").N() != res.Finished {
		t.Fatal("payoff samples missing")
	}
}

func TestContractHistoryAccumulates(t *testing.T) {
	res, err := Run(Config{Servers: []ServerConfig{{Spec: spec("s", 32)}}}, smallTrace(2, 30, 10))
	if err != nil {
		t.Fatal(err)
	}
	if res.DB.HistoryLen() != res.Finished {
		t.Fatalf("history %d != finished %d", res.DB.HistoryLen(), res.Finished)
	}
}

func TestHistoryBidderUsesRunHistory(t *testing.T) {
	// A grid where the history bidder draws from the shared DB: after
	// enough settlements, bids should track the realized multipliers.
	store := runAndGetDB(t)
	view := dbHistoryView{db: store}
	h := bidding.NewHistory(view)
	c := &qos.Contract{App: "synth", MinPE: 1, MaxPE: 8, Work: 100}
	st := bidding.ServerState{NumPE: 32, Speed: 1, CostRate: 0.01, CanRun: true}
	if _, ok := h.Multiplier(0, c, st); !ok {
		t.Fatal("history bidder declined")
	}
}

func runAndGetDB(t *testing.T) *resultDB {
	res, err := Run(Config{Servers: []ServerConfig{{Spec: spec("s", 32)}}}, smallTrace(2, 30, 10))
	if err != nil {
		t.Fatal(err)
	}
	return &resultDB{res: res}
}

type resultDB struct{ res *Result }

type dbHistoryView struct{ db *resultDB }

func (v dbHistoryView) SimilarContracts(now float64, c *qos.Contract, limit int) []bidding.HistoryRecord {
	recs := v.db.res.DB.RecentContracts(nil, limit)
	out := make([]bidding.HistoryRecord, len(recs))
	for i, r := range recs {
		out[i] = bidding.HistoryRecord{Time: r.Time, App: r.App, MinPE: r.MinPE, MaxPE: r.MaxPE, Multiplier: r.Multiplier}
	}
	return out
}

func TestCriterionAffectsPlacement(t *testing.T) {
	// A fast-expensive server and a slow-cheap one: least-cost prefers
	// cheap, earliest-completion prefers fast.
	fast := spec("fast", 64)
	fast.Speed = 4.0
	fast.CostRate = 0.10
	cheap := spec("cheap", 64)
	cheap.CostRate = 0.001
	tr := smallTrace(4, 40, 30)
	byCost, err := Run(Config{
		Servers:   []ServerConfig{{Spec: fast}, {Spec: cheap}},
		Criterion: market.LeastCost{},
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	byTime, err := Run(Config{
		Servers:   []ServerConfig{{Spec: fast}, {Spec: cheap}},
		Criterion: market.EarliestCompletion{},
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if byCost.Revenue["cheap"] <= byCost.Revenue["fast"] {
		t.Fatalf("least-cost favored the expensive server: %v", byCost.Revenue)
	}
	if byTime.Revenue["fast"] <= byTime.Revenue["cheap"] {
		t.Fatalf("earliest-completion favored the slow server: %v", byTime.Revenue)
	}
}

func TestWeatherBidderWiredInSimulation(t *testing.T) {
	tr := smallTrace(8, 60, 3)
	res, err := Run(Config{Servers: []ServerConfig{
		{Spec: spec("w1", 24), Bidder: bidding.NewWeather(nil)},
		{Spec: spec("w2", 24), Bidder: bidding.NewWeather(nil)},
	}}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Placed == 0 {
		t.Fatal("weather grid placed nothing")
	}
	// The multiplier must actually respond to grid conditions: under
	// load it cannot sit at the idle-market constant.
	s := res.Metrics.S("bid_multiplier")
	if s.Percentile(0) >= s.Max() {
		t.Fatalf("weather bidder never moved: min=%v max=%v", s.Percentile(0), s.Max())
	}
}

func TestPhasedWorkloadSimulates(t *testing.T) {
	s := workload.Default(29, 50, 5)
	s.MaxPE = 16
	s.MinWork = 100
	s.MaxWork = 600
	s.PhasedFraction = 0.6
	tr, err := workload.Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Servers: []ServerConfig{{Spec: spec("m", 32)}}}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Finished != res.Placed || res.Placed == 0 {
		t.Fatalf("phased jobs lost: placed=%d finished=%d", res.Placed, res.Finished)
	}
}

// §4.1 migration: a checkpointed preemption victim restarts on a
// subcontracted idle server instead of waiting behind the urgent job.
func TestCheckpointMigration(t *testing.T) {
	// Craft a trace: a low-value filler that saturates "busy", then an
	// urgent high-payoff job that preempts it. "idle" has capacity.
	mkTrace := func() *workload.Trace {
		filler := &qos.Contract{
			App: "fill", MinPE: 8, MaxPE: 8, Work: 8 * 2000,
			Payoff: qos.Payoff{Soft: 1e6, Hard: 2e6, AtSoft: 1, AtHard: 0.5},
		}
		urgent := &qos.Contract{
			App: "urgent", MinPE: 8, MaxPE: 8, Work: 8 * 100,
			Payoff: qos.Payoff{Soft: 300, Hard: 600, AtSoft: 10000, AtHard: 1000, Penalty: 100},
		}
		return &workload.Trace{Items: []workload.Item{
			{ID: "filler", SubmitAt: 0, User: "u", Contract: filler},
			{ID: "urgent", SubmitAt: 50, User: "u", Contract: urgent},
		}}
	}
	servers := func() []ServerConfig {
		busy := spec("busy", 8)
		busy.CostRate = 0.001 // both jobs land here first
		idle := spec("idle", 8)
		idle.CostRate = 1.0
		return []ServerConfig{
			{Spec: busy, NewScheduler: profitFactory},
			{Spec: idle, NewScheduler: profitFactory},
		}
	}
	schedCfg := scheduler.Config{Preempt: true, Lookahead: 1e9}

	noMig, err := Run(Config{Servers: servers(), SchedCfg: schedCfg}, mkTrace())
	if err != nil {
		t.Fatal(err)
	}
	mig, err := Run(Config{Servers: servers(), SchedCfg: schedCfg, MigrateAfter: 30}, mkTrace())
	if err != nil {
		t.Fatal(err)
	}
	if got := mig.Metrics.C("migrations").Value(); got == 0 {
		t.Fatal("no migration happened")
	}
	if noMig.Metrics.C("migrations").Value() != 0 {
		t.Fatal("migrations counted with the feature off")
	}
	// Both runs finish both jobs; the migrated filler finishes sooner
	// because it runs on the idle server instead of waiting.
	if mig.Finished != 2 || noMig.Finished != 2 {
		t.Fatalf("finished: mig=%d noMig=%d", mig.Finished, noMig.Finished)
	}
	// The filler's contract row names the server that ran it to the end
	// and is booked at its finish.
	fMig, fNo := contractRow(t, mig.DB, "filler"), contractRow(t, noMig.DB, "filler")
	if fMig.Server != "idle" {
		t.Fatalf("filler did not migrate: server=%s", fMig.Server)
	}
	if fMig.Time >= fNo.Time {
		t.Fatalf("migration did not help: %v vs %v", fMig.Time, fNo.Time)
	}
}

// A migration target's bid is not its admission: its estimate probes a
// job submitted now, while Submit measures the hard deadline from the
// job's own SubmitTime. When the target refuses, the checkpointed job
// stays queued at home and finishes there.
func TestRefusedMigrationKeepsTheJobHome(t *testing.T) {
	// The filler needs 1900 s on 8 PEs and has 1950 s to its hard
	// deadline; the urgent job checkpoints it from 50 s to 150 s. At the
	// sweep at 120 s its 1850 s left would run promptly on "idle" (the
	// estimate's 1970 s is within 1950 s of now) but miss the deadline
	// measured from 0 s, so "idle" refuses at Submit.
	filler := &qos.Contract{
		App: "fill", MinPE: 8, MaxPE: 8, Work: 8 * 1900,
		Payoff: qos.Payoff{Soft: 1920, Hard: 1950, AtSoft: 1, AtHard: 0.5},
	}
	urgent := &qos.Contract{
		App: "urgent", MinPE: 8, MaxPE: 8, Work: 8 * 100,
		Payoff: qos.Payoff{Soft: 300, Hard: 600, AtSoft: 10000, AtHard: 1000, Penalty: 100},
	}
	tr := &workload.Trace{Items: []workload.Item{
		{ID: "filler", SubmitAt: 0, User: "u", Contract: filler},
		{ID: "urgent", SubmitAt: 50, User: "u", Contract: urgent},
	}}
	busy, idle := spec("busy", 8), spec("idle", 8)
	busy.CostRate, idle.CostRate = 0.001, 1.0
	res, err := Run(Config{
		Servers:      []ServerConfig{{Spec: busy, NewScheduler: profitFactory}, {Spec: idle, NewScheduler: profitFactory}},
		SchedCfg:     scheduler.Config{Preempt: true, Lookahead: 1e9},
		MigrateAfter: 120,
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Metrics.C("migrations").Value(); n != 0 {
		t.Fatalf("%d migrations, want 0: the target admitted the job", n)
	}
	if res.Placed != 2 || res.Finished != 2 {
		t.Fatalf("placed %d, finished %d: want both finished", res.Placed, res.Finished)
	}
	if row := contractRow(t, res.DB, "filler"); row.Server != "busy" || row.Time != 2000 {
		t.Fatalf("filler finished on %s at %v, want busy at 2000", row.Server, row.Time)
	}
}

// contractRow returns a job's one contract-history row.
func contractRow(t *testing.T, d *db.DB, jobID string) db.ContractRecord {
	t.Helper()
	rows := d.RecentContracts(func(r db.ContractRecord) bool { return r.JobID == jobID }, 2)
	if len(rows) != 1 {
		t.Fatalf("%d history rows for %s, want 1", len(rows), jobID)
	}
	return rows[0]
}

// TestReplayKeepsNoSettledAward: a flash crowd on twelve servers, every
// job soliciting all of them, leaves no award behind once its jobs have
// settled — with commits immediate or delayed, the replay's per-job state
// is bounded by the jobs in flight, not by the trace.
func TestReplayKeepsNoSettledAward(t *testing.T) {
	var servers []ServerConfig
	for i := 0; i < 12; i++ {
		servers = append(servers, ServerConfig{Spec: spec(fmt.Sprintf("s%02d", i), 32), Bidder: bidding.NewUtilization()})
	}
	for _, delay := range []float64{0, 2} {
		res, g, err := new(Storage).run(Config{Servers: servers, CommitDelay: delay}, smallTrace(42, 600, 0.2))
		if err != nil {
			t.Fatal(err)
		}
		if res.Placed == 0 || res.Finished != res.Placed {
			t.Fatalf("delay %v: placed %d, finished %d", delay, res.Placed, res.Finished)
		}
		if len(g.awards) != 0 || len(g.placing) != 0 {
			t.Fatalf("delay %v: %d awards and %d placements outlive %d settled jobs", delay, len(g.awards), len(g.placing), res.Finished)
		}
	}
}

// §5.5.2: in Service-Unit mode users draw on quotas; once a quota is
// exhausted further placements are refused, and revenue equals the SUs
// actually drawn.
func TestServiceUnitQuotas(t *testing.T) {
	tr := smallTrace(37, 40, 10)
	quota := map[string]float64{}
	for u := 0; u < 7; u++ {
		quota[fmt.Sprintf("user-%d", u)] = 4 // tight: some jobs must be refused
	}
	res, err := Run(Config{
		Servers: []ServerConfig{{Spec: spec("center", 64)}},
		Mode:    accounting.ServiceUnits,
		SUQuota: quota,
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected == 0 {
		t.Fatal("tight quotas rejected nothing")
	}
	if res.Placed == 0 {
		t.Fatal("nothing placed at all")
	}
	// Unlimited quotas place everything.
	rich := map[string]float64{}
	for u := range quota {
		rich[u] = 1e9
	}
	open, err := Run(Config{
		Servers: []ServerConfig{{Spec: spec("center", 64)}},
		Mode:    accounting.ServiceUnits,
		SUQuota: rich,
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if open.Rejected != 0 {
		t.Fatalf("rich quotas still rejected %d", open.Rejected)
	}
	if open.Placed <= res.Placed {
		t.Fatalf("rich placed %d <= tight placed %d", open.Placed, res.Placed)
	}
}

// TestRefusedChargeBooksNoHistory: a settle the quota cannot cover books
// nothing — no revenue and no history row — as on the Central Server.
// Jobs admitted while the quota still covered them finish after it has
// been drawn down, so some charges are refused: fewer history rows than
// finished jobs, and the rows, the revenue and the quota drawn agree.
func TestRefusedChargeBooksNoHistory(t *testing.T) {
	quota := map[string]float64{}
	for u := 0; u < 7; u++ {
		quota[fmt.Sprintf("user-%d", u)] = 4
	}
	res, err := Run(Config{
		Servers: []ServerConfig{{Spec: spec("center", 64)}},
		Mode:    accounting.ServiceUnits,
		SUQuota: quota,
	}, smallTrace(37, 40, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if n := res.DB.HistoryLen(); n >= res.Finished {
		t.Fatalf("%d history rows for %d finished jobs: the trace no longer exercises a refusal", n, res.Finished)
	}
	drawn := 0.0
	for u, q := range quota {
		left := res.DB.Quota(u)
		if left < 0 || left > q {
			t.Errorf("%s holds %.2f SU of its %.2f", u, left, q)
		}
		drawn += q - left
	}
	booked := 0.0
	for _, r := range res.DB.RecentContracts(nil, res.DB.HistoryLen()) {
		booked += r.Price
	}
	if rev := res.Revenue["center"]; math.Abs(booked-rev) > 1e-9 || math.Abs(drawn-rev) > 1e-9 {
		t.Errorf("history books %.2f, revenue %.2f, quota drawn %.2f: want all equal", booked, rev, drawn)
	}
}

// Property-style sweep: across random small configurations, and X1's
// migrating grid, the simulation conserves jobs (placed + rejected ==
// submitted, finished == placed) and utilization stays within [0,1], so
// no server exceeds its capacity in the utilization integral.
func TestSimulationInvariantsAcrossConfigs(t *testing.T) {
	type runCase struct {
		name string
		cfg  Config
		ws   workload.Spec
	}
	var cases []runCase
	factories := []scheduler.Factory{nil, fcfsFactory, equiFactory,
		func(sp machine.Spec, c scheduler.Config) scheduler.Scheduler { return scheduler.NewBackfill(sp, c) },
		profitFactory,
	}
	bidders := []bidding.Generator{nil, bidding.Baseline{}, bidding.NewUtilization(), bidding.NewWeather(nil)}
	for seed := uint64(0); seed < 12; seed++ {
		nServers := 1 + int(seed%3)
		var servers []ServerConfig
		for i := 0; i < nServers; i++ {
			servers = append(servers, ServerConfig{
				Spec:         spec(fmt.Sprintf("s%d", i), 8+8*int(seed%4)),
				NewScheduler: factories[int(seed+uint64(i))%len(factories)],
				Bidder:       bidders[int(seed+uint64(i))%len(bidders)],
			})
		}
		ws := workload.Default(seed, 30, 6)
		ws.MaxPE = 16
		ws.MinWork = 20
		ws.MaxWork = 300
		ws.PhasedFraction = 0.3
		cases = append(cases, runCase{fmt.Sprintf("seed %d", seed), Config{
			Servers:      servers,
			SchedCfg:     scheduler.Config{ReconfigLatency: float64(seed % 3), Lookahead: float64(seed%2) * 1e6},
			SinglePhase:  seed%5 == 0,
			CommitDelay:  float64(seed%4) * 0.5,
			MigrateAfter: float64(seed%3) * 40,
		}, ws})
	}
	// X1's grid: two preempting profit servers and the migration sweep.
	// None of the generated configurations above ever migrates a job.
	for _, seed := range []uint64{21, 42} {
		primary, sub := spec("primary", 32), spec("subcontract", 32)
		primary.MemPerPE, sub.MemPerPE = 2048, 2048
		primary.CostRate, sub.CostRate = 0.001, 0.1
		ws := workload.Default(seed, 80, 30)
		ws.MaxPE = 32
		ws.MinWork = 500
		ws.MaxWork = 4000
		ws.DeadlineFraction = 1.0
		ws.DeadlineTightness = 1.5
		cases = append(cases, runCase{fmt.Sprintf("X1 grid seed %d", seed), Config{
			Servers:      []ServerConfig{{Spec: primary, NewScheduler: profitFactory}, {Spec: sub, NewScheduler: profitFactory}},
			SchedCfg:     scheduler.Config{Preempt: true, Lookahead: 600},
			MigrateAfter: 60,
		}, ws})
	}
	for _, c := range cases {
		tr, err := workload.Generate(c.ws)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(c.cfg, tr)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Placed+res.Rejected != len(tr.Items) {
			t.Errorf("%s: placed %d + rejected %d != %d", c.name, res.Placed, res.Rejected, len(tr.Items))
		}
		// Every placed job must eventually finish (traces are finite and
		// schedulers are work-conserving; migration/lookahead must not
		// strand anything).
		if res.Finished != res.Placed {
			t.Errorf("%s: finished %d of %d placed jobs", c.name, res.Finished, res.Placed)
		}
		for name, u := range res.Utilization {
			if u < -1e-9 || u > 1+1e-9 {
				t.Errorf("%s: %s utilization %v out of range", c.name, name, u)
			}
		}
	}
}

func TestHistoryBidderWiredToStore(t *testing.T) {
	tr := smallTrace(41, 80, 4)
	res, err := Run(Config{Servers: []ServerConfig{
		{Spec: spec("h1", 24), Bidder: bidding.NewHistory(nil)},
		{Spec: spec("h2", 24), Bidder: bidding.NewHistory(nil)},
	}}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Placed == 0 || res.Finished != res.Placed {
		t.Fatalf("placed=%d finished=%d", res.Placed, res.Finished)
	}
	// Once contracts settle, the history bidder must track realized
	// multipliers, which differ from the utilization fallback's idle
	// constant of 0.5 — i.e. the multiplier series shows anchoring.
	s := res.Metrics.S("bid_multiplier")
	if s.Percentile(0) >= s.Max() {
		t.Fatal("history bidder never moved off its fallback")
	}
	if res.DB.HistoryLen() == 0 {
		t.Fatal("no contract history accumulated")
	}
}
