// Package gridsim is the simulation framework of paper §5.4: "to
// evaluate the scalability of the framework and to compare the
// effectiveness of alternative bidding strategies, we have built a
// simulation framework: each entity in the Faucets system — clients,
// Compute Servers, Faucets-Server, job schedulers with their
// bid-generation algorithms, and application programs — is represented
// by an object, and discrete-event simulation is carried out over
// patterns of job submissions under study."
//
// Every experiment in EXPERIMENTS.md is a configuration of this package:
// choose schedulers, bid generators, an economic mode, an access policy
// (who may use which servers), and a workload trace; Run returns the
// measured series.
package gridsim

import (
	"errors"
	"fmt"

	"faucets/internal/accounting"
	"faucets/internal/bidding"
	"faucets/internal/db"
	"faucets/internal/job"
	"faucets/internal/machine"
	"faucets/internal/market"
	"faucets/internal/qos"
	"faucets/internal/scheduler"
	"faucets/internal/sim"
	"faucets/internal/weather"
	"faucets/internal/workload"
)

// ServerConfig describes one simulated Compute Server.
type ServerConfig struct {
	Spec machine.Spec
	// NewScheduler defaults to the adaptive equipartition scheduler.
	NewScheduler scheduler.Factory
	// Bidder defaults to the paper's baseline (multiplier 1.0).
	Bidder bidding.Generator
	// Home names the bartering cluster this server belongs to; defaults
	// to Spec.Name.
	Home string
}

// Config describes a whole simulated grid.
type Config struct {
	Servers []ServerConfig
	// SchedCfg is shared by all schedulers (reconfiguration latency,
	// profit lookahead).
	SchedCfg scheduler.Config
	// Criterion is the client-side bid-evaluation rule; defaults to
	// least cost.
	Criterion market.Criterion
	// Mechanism selects the market mechanism for every submission (a
	// qos.Mechanism* name; empty = first-price). A contract carrying
	// its own Mechanism field overrides the run default per job.
	Mechanism string
	// Mode selects the economic context (§5.5); default Dollars.
	Mode accounting.Mode
	// SinglePhase disables the two-phase commit fallback (experiment E8).
	SinglePhase bool
	// CommitDelay separates bid solicitation from commit by the given
	// virtual seconds, modeling §5.3's "many bid-requests may be in
	// progress at the same time": every solicitation that happens inside
	// another job's window sees bids that may be stale by commit time.
	// Zero commits immediately (the sequential prototype behaviour).
	CommitDelay float64
	// Access restricts each user to a set of server names; users absent
	// from the map may use every server. nil means open access.
	// This models the paper's external-fragmentation scenario (§1).
	Access map[string][]string
	// HomeOf maps users to their Home Cluster for bartering (§5.5.3).
	HomeOf map[string]string
	// HomeFirst prefers the user's home cluster when it can run the job,
	// consulting the market only otherwise (§5.5.3).
	HomeFirst bool
	// FilterFeasible models the Central Server's static matching filters
	// (§5.1): request-for-bids broadcasts skip servers whose static
	// properties (processor count, memory) cannot satisfy the contract.
	// Off, the client broadcasts to every server — the paper's current
	// implementation.
	FilterFeasible bool
	// InitialCredits seeds each cluster's bartering balance.
	InitialCredits map[string]float64
	// SUQuota grants each user a Service-Unit allocation (§5.5.2, Mode
	// == accounting.ServiceUnits): bids are SU multipliers and a user
	// whose quota cannot cover a bid is refused at commit.
	SUQuota map[string]float64
	// MigrateAfter enables checkpoint migration (§4.1: jobs "restarted
	// at a later point in time and possibly at another (subcontracted)
	// Compute Server"): every MigrateAfter virtual seconds, checkpointed
	// jobs waiting on a busy server are re-auctioned and restarted on a
	// server that can run them promptly. Zero disables migration.
	MigrateAfter float64
}

// Result carries the measurements of one simulation run.
type Result struct {
	Metrics *sim.Metrics
	// End is the virtual time the last event fired.
	End sim.Time
	// Placed, Rejected count job placements.
	Placed   int
	Rejected int
	// Finished counts jobs that ran to completion.
	Finished int
	// Revenue per server (bid prices of finished jobs).
	Revenue map[string]float64
	// Payoff per server (realized payoff-function value of finished
	// jobs; deadline experiments).
	Payoff map[string]float64
	// Utilization per server: time-weighted busy fraction over the run.
	Utilization map[string]float64
	// Credits per cluster at the end (bartering mode).
	Credits map[string]float64
	// DB is the shared database (contract history, job records).
	DB *db.DB
}

// bidValidity is how long a simulated bid stands, in virtual seconds.
const bidValidity = 60

// serverEntity is one Compute Server object in the simulation.
type serverEntity struct {
	g      *gridRun
	name   string
	home   string
	sched  scheduler.Scheduler
	spec   machine.Spec // sched.Spec(), read once
	bidder bidding.Generator

	outstanding float64 // admitted-but-unfinished sequential work
	completion  *sim.Event
	util        *sim.TimeWeighted
	revenue     float64
	payoff      float64

	// The completion event's name and callback, built once per server:
	// refresh re-arms the event after every state change.
	completionName string
	fire           func(*sim.Engine)
}

// gridRun is the in-flight simulation state.
type gridRun struct {
	cfg     Config
	mech    market.Mechanism
	eng     *sim.Engine
	servers []*serverEntity
	byName  map[string]*serverEntity
	metrics *sim.Metrics
	acct    *accounting.Accountant
	store   *db.DB
	// placing maps a job ID to its Job while an award is in progress.
	placing map[string]*placement
	res     *Result

	// The two per-bid counters, looked up by name on the first bid (a
	// run that never solicits must not report them) and by pointer after.
	bidReq, bidReply *sim.Counter
}

// placement carries the context a Commit callback needs.
type placement struct {
	j    *job.Job
	user string
	home string
}

// ServerPort adapter: bid solicitation.
func (s *serverEntity) ServerName() string { return s.name }

// RequestBid implements market.ServerPort against the local scheduler and
// bid generator, counting protocol messages for the scalability
// experiments.
func (s *serverEntity) RequestBid(now float64, c *qos.Contract) (bidding.Bid, bool) {
	g := s.g
	if g.bidReq == nil {
		g.bidReq = g.metrics.C("messages.bid_req")
	}
	g.bidReq.Inc()
	st := bidding.StateFor(&s.spec, s.sched, now, c, s.outstanding)
	b, ok := bidding.Make(s.bidder, s.name, now, c, st, bidValidity)
	if ok {
		if g.bidReply == nil {
			g.bidReply = g.metrics.C("messages.bid_reply")
		}
		g.bidReply.Inc()
	}
	return b, ok
}

// Post implements market.PostPort: the server's commodity post, read
// straight from its published weather with no bid round trip. The
// static screen is what a directory listing supports; the scheduler still
// arbitrates at commit time, which is the posted-price mechanism's
// admission risk.
func (s *serverEntity) Post(now float64, c *qos.Contract) (bidding.Bid, bool) {
	s.g.metrics.C("messages.post_read").Inc()
	return bidding.PostedBid(s.name, now, c,
		bidding.PostedState(&s.spec, s.sched.UsedPEs(), c.FitsMachine(s.spec.NumPE, s.spec.MemPerPE)))
}

// Commit implements market.ServerPort: phase two, the actual admission.
func (s *serverEntity) Commit(now float64, jobID string, b bidding.Bid) error {
	s.g.metrics.C("messages.commit").Inc()
	pl, ok := s.g.placing[jobID]
	if !ok {
		return errors.New("gridsim: unknown job in commit")
	}
	if !s.g.acct.CanAfford(pl.user, pl.home, s.home, b.Price) {
		return fmt.Errorf("gridsim: %s cannot afford %s on %s", pl.user, jobID, s.name)
	}
	if !s.sched.Submit(now, pl.j) {
		s.g.metrics.C("commit.refused").Inc()
		return fmt.Errorf("gridsim: %s refused %s at commit", s.name, jobID)
	}
	s.outstanding += pl.j.Contract.Work
	s.g.store.PutJob(db.JobRecord{
		ID: jobID, Owner: pl.user, Server: s.name, App: pl.j.Contract.App,
		State: pl.j.State().String(), SubmitTime: pl.j.SubmitTime,
		Price: b.Price, HomeCluster: pl.home,
	})
	s.refresh(now)
	return nil
}

// refresh re-registers the server's next-completion event after any
// state change.
func (s *serverEntity) refresh(now float64) {
	s.util.Set(sim.Time(now), float64(s.sched.UsedPEs()))
	s.g.eng.Cancel(s.completion)
	s.completion = nil
	t, ok := s.sched.NextCompletion(now)
	if !ok {
		return
	}
	if t < now {
		t = now
	}
	s.completion = s.g.eng.At(sim.Time(t), s.completionName, s.fire)
}

// onCompletion advances the scheduler and settles finished jobs.
func (s *serverEntity) onCompletion(now float64) {
	finished := s.sched.Advance(now)
	for _, j := range finished {
		s.settle(now, j)
	}
	s.refresh(now)
}

// settle books revenue, payoff, history and metrics for a finished job.
func (s *serverEntity) settle(now float64, j *job.Job) {
	g := s.g
	s.outstanding -= j.Contract.Work
	if s.outstanding < 0 {
		s.outstanding = 0
	}
	// One trip to the store: complete the row Commit wrote and keep a copy.
	var rec db.JobRecord
	complete := func(r *db.JobRecord) {
		r.State = j.State().String()
		r.StartTime = j.StartTime
		r.FinishTime = j.FinishTime
		r.CPUSeconds = j.CPUUsed()
		rec = *r
	}
	if g.store.UpdateJob(string(j.ID), complete) != nil {
		complete(&db.JobRecord{ID: string(j.ID), Owner: j.Owner, Server: s.name})
		g.store.PutJob(rec)
	}

	g.res.Finished++
	g.metrics.S("response_time").Add(j.ResponseTime())
	// Bounded slowdown: response over service time, floored at 10s of
	// service so tiny jobs don't dominate the statistic.
	service := j.FinishTime - j.StartTime
	if service < 10 {
		service = 10
	}
	g.metrics.S("slowdown").Add(j.ResponseTime() / service)
	g.metrics.S("price").Add(rec.Price)
	if err := g.acct.Settle(rec.ID, rec.Owner, rec.HomeCluster, s.name, rec.Price); err == nil {
		s.revenue += rec.Price
	}
	if !j.Contract.Payoff.Zero() {
		v := j.Payout()
		s.payoff += v
		g.metrics.S("payoff").Add(v)
		if j.MetDeadline() {
			g.metrics.C("deadline.met").Inc()
		} else {
			g.metrics.C("deadline.missed").Inc()
		}
	}
	// Market history for the §5.2.1 history-aware bidders.
	g.store.AppendContract(db.ContractRecord{
		Time: now, JobID: rec.ID, App: rec.App, Server: s.name,
		MinPE: j.Contract.MinPE, MaxPE: j.Contract.MaxPE, Price: rec.Price,
		Multiplier: bidding.MultiplierOf(rec.Price, rec.CPUSeconds, s.spec.CostRate),
	})
}

// Run executes a trace against a grid configuration and returns the
// measurements.
func Run(cfg Config, trace *workload.Trace) (*Result, error) {
	res, _, err := runInternal(cfg, trace)
	return res, err
}

func runInternal(cfg Config, trace *workload.Trace) (*Result, *gridRun, error) {
	if len(cfg.Servers) == 0 {
		return nil, nil, errors.New("gridsim: no servers configured")
	}
	if cfg.Criterion == nil {
		cfg.Criterion = market.LeastCost{}
	}
	mech, err := market.ForName(cfg.Mechanism)
	if err != nil {
		return nil, nil, fmt.Errorf("gridsim: %w", err)
	}
	store := db.New()
	g := &gridRun{
		cfg:     cfg,
		mech:    mech,
		eng:     sim.NewEngine(),
		byName:  map[string]*serverEntity{},
		metrics: sim.NewMetrics(),
		store:   store,
		acct:    accounting.New(cfg.Mode, store),
		placing: map[string]*placement{},
	}
	for cluster, amount := range cfg.InitialCredits {
		store.AddCredits(cluster, amount)
	}
	for user, su := range cfg.SUQuota {
		if err := g.acct.GrantQuota(user, su); err != nil {
			return nil, nil, fmt.Errorf("gridsim: quota for %s: %w", user, err)
		}
	}
	g.res = &Result{
		Metrics:     g.metrics,
		Revenue:     map[string]float64{},
		Payoff:      map[string]float64{},
		Utilization: map[string]float64{},
		Credits:     map[string]float64{},
		DB:          store,
	}
	for _, sc := range cfg.Servers {
		if err := sc.Spec.Validate(); err != nil {
			return nil, nil, fmt.Errorf("gridsim: %w", err)
		}
		factory := sc.NewScheduler
		if factory == nil {
			factory = func(sp machine.Spec, c scheduler.Config) scheduler.Scheduler {
				return scheduler.NewEquipartition(sp, c)
			}
		}
		bidder := sc.Bidder
		if bidder == nil {
			bidder = bidding.Baseline{}
		}
		home := sc.Home
		if home == "" {
			home = sc.Spec.Name
		}
		ent := &serverEntity{
			g: g, name: sc.Spec.Name, home: home,
			sched:  factory(sc.Spec, cfg.SchedCfg),
			bidder: bidder,
			util:   g.metrics.L("util." + sc.Spec.Name),

			completionName: "completion:" + sc.Spec.Name,
		}
		ent.spec = ent.sched.Spec()
		ent.fire = func(e *sim.Engine) { ent.onCompletion(float64(e.Now())) }
		ent.util.Set(0, 0)
		g.servers = append(g.servers, ent)
		g.byName[ent.name] = ent
	}

	// Wire the §5.2.1 grid-weather and contract-history sources into any
	// bidders constructed without one: in simulation the Faucets system's
	// global information is the grid itself.
	src := gridWeatherSource{g: g}
	for _, s := range g.servers {
		if w, ok := s.bidder.(*bidding.Weather); ok && w.Source == nil {
			w.SetSource(src)
		}
		if h, ok := s.bidder.(*bidding.History); ok && h.View == nil {
			h.View = storeHistoryView{store: g.store}
		}
	}

	// Schedule every submission from the trace.
	for _, it := range trace.Items {
		it := it
		g.eng.At(sim.Time(it.SubmitAt), "submit:"+it.ID, func(e *sim.Engine) {
			g.submit(float64(e.Now()), it)
		})
	}
	if cfg.MigrateAfter > 0 {
		g.scheduleMigration()
	}
	end := g.eng.Run()
	g.res.End = end
	for _, s := range g.servers {
		s.util.Set(end, float64(s.sched.UsedPEs()))
		g.res.Revenue[s.name] = s.revenue
		g.res.Payoff[s.name] = s.payoff
		g.res.Utilization[s.name] = s.util.MeanOver(end) / float64(s.spec.NumPE)
		g.res.Credits[s.home] = store.Credits(s.home)
	}
	return g.res, g, nil
}

// scheduleMigration arms the next checkpoint-migration sweep. Sweeps
// self-perpetuate while the grid still has events or waiting jobs, so
// the simulation terminates once everything drains.
func (g *gridRun) scheduleMigration() {
	g.eng.After(sim.Duration(g.cfg.MigrateAfter), "migrate-sweep", func(e *sim.Engine) {
		now := float64(e.Now())
		g.migrateSweep(now)
		// Re-arm only while other events remain: once the grid has fully
		// drained, another sweep can change nothing (a final sweep just
		// ran), and re-arming would keep the simulation alive forever.
		if e.Pending() > 0 {
			g.scheduleMigration()
		}
	})
}

// migrateSweep moves checkpointed jobs from busy servers to servers that
// can run them promptly — the grid-level half of §4.1's checkpoint/
// restart story.
func (g *gridRun) migrateSweep(now float64) {
	for _, origin := range g.servers {
		for _, j := range origin.sched.Waiting() {
			if j.State() != job.Checkpointed {
				continue
			}
			rec, err := g.store.GetJob(string(j.ID))
			if err != nil {
				continue
			}
			target := g.findPromptServer(now, origin, j)
			if target == nil {
				continue
			}
			evicted := origin.sched.Evict(now, j.ID)
			if evicted == nil {
				continue
			}
			if !target.sched.Submit(now, evicted) {
				// Target changed its mind: put the job back home.
				_ = origin.sched.Submit(now, evicted)
				continue
			}
			// Transfer the outstanding-work accounting and the record.
			origin.outstanding -= evicted.Contract.Work
			if origin.outstanding < 0 {
				origin.outstanding = 0
			}
			target.outstanding += evicted.Contract.Work
			rec.Server = target.name
			g.store.PutJob(rec)
			g.metrics.C("migrations").Inc()
			origin.refresh(now)
			target.refresh(now)
		}
	}
}

// findPromptServer returns a server (other than origin) whose estimate
// promises the job starts without queueing delay; nil if none.
func (g *gridRun) findPromptServer(now float64, origin *serverEntity, j *job.Job) *serverEntity {
	var best *serverEntity
	bestEst := 0.0
	for _, cand := range g.servers {
		if cand == origin {
			continue
		}
		est, ok := cand.sched.EstimateCompletion(now, j.Contract)
		if !ok {
			continue
		}
		// Prompt: the estimate leaves no room for a queueing delay
		// beyond running the whole contract at MinPE from now.
		prompt := now + j.Contract.ExecTime(j.Contract.MinPE, cand.spec.Speed)
		if est > prompt+1e-9 {
			continue
		}
		if best == nil || est < bestEst {
			best, bestEst = cand, est
		}
	}
	return best
}

// storeHistoryView adapts the shared database's contract history to the
// history bidder's view (§5.2.1: "what is the average price of similar
// contracts in the recent past, in the whole system?").
type storeHistoryView struct{ store *db.DB }

// SimilarContracts implements bidding.HistoryView.
func (v storeHistoryView) SimilarContracts(now float64, c *qos.Contract, limit int) []bidding.HistoryRecord {
	recs := weather.SimilarContracts(v.store, c.MaxPE, limit)
	out := make([]bidding.HistoryRecord, len(recs))
	for i, r := range recs {
		out[i] = bidding.HistoryRecord{Time: r.Time, App: r.App, MinPE: r.MinPE, MaxPE: r.MaxPE, Multiplier: r.Multiplier}
	}
	return out
}

// gridWeatherSource computes §5.2.1 reports from the simulated fleet.
type gridWeatherSource struct{ g *gridRun }

// GridWeather implements bidding.WeatherSource.
func (s gridWeatherSource) GridWeather(now float64) (weather.Report, bool) {
	used, total := 0, 0
	for _, sv := range s.g.servers {
		used += sv.sched.UsedPEs()
		total += sv.spec.NumPE
	}
	return weather.Compute(now, used, total, len(s.g.servers), s.g.store), true
}

// eligible returns the servers a user may solicit, honoring the access
// policy and, when enabled, the §5.1 static feasibility filter.
func (g *gridRun) eligible(user string, c *qos.Contract) []*serverEntity {
	base := g.servers
	if allowed, restricted := g.cfg.Access[user]; restricted {
		base = base[:0:0]
		for _, name := range allowed {
			if s, ok := g.byName[name]; ok {
				base = append(base, s)
			}
		}
	}
	if !g.cfg.FilterFeasible {
		return base
	}
	out := make([]*serverEntity, 0, len(base))
	for _, s := range base {
		if !c.FitsMachine(s.spec.NumPE, s.spec.MemPerPE) {
			g.metrics.C("filter.screened").Inc()
			continue
		}
		out = append(out, s)
	}
	return out
}

// submit is the client-entity behaviour for one trace item: identify
// candidate servers (home-first if configured), run the award protocol,
// and count the outcome. With CommitDelay configured, bids are solicited
// now and the commit walk fires in a later event, overlapping with other
// clients' solicitations (§5.3).
func (g *gridRun) submit(now float64, it workload.Item) {
	j := job.New(job.ID(it.ID), it.User, it.Contract, now)
	home := g.cfg.HomeOf[it.User]
	g.placing[it.ID] = &placement{j: j, user: it.User, home: home}

	mech := g.mech
	if name := it.Contract.Mechanism; name != "" {
		m, err := market.ForName(name)
		if err != nil {
			g.finishAward(now, it, j, market.AwardResult{}, err)
			return
		}
		mech = m
	}
	// Sim entities run on the engine goroutine and are not safe for the
	// concurrent fan-out; Concurrency 1 degenerates the auction
	// mechanisms to the serial walk (posted-price is serial by
	// construction).
	serial := market.SolicitOpts{Concurrency: 1}

	candidates := g.eligible(it.User, it.Contract)
	// Home-cluster preference (§5.5.3): "normally whenever he tries to
	// submit a job, the system tries to submit the job to the user's
	// Home Cluster. But if the resources on the Home Cluster are not
	// available … the system tries to submit the job to any of the
	// collaborating Compute Servers." Home resources count as available
	// when the home bid promises completion no later than running the
	// job at its minimum size starting right now — i.e. the job does not
	// have to wait behind a backlog.
	if g.cfg.HomeFirst && home != "" {
		if hs, ok := g.byName[home]; ok {
			ports := []market.ServerPort{hs}
			bids := mech.Solicit(now, ports, it.Contract, g.cfg.Criterion, serial)
			if len(bids) > 0 {
				prompt := now + it.Contract.ExecTime(it.Contract.MinPE, hs.spec.Speed)
				if bids[0].EstCompletion <= prompt+1e-9 {
					if res, err := market.CommitPriced(now, ports, bids, it.ID, g.cfg.SinglePhase, mech); err == nil {
						g.finishAward(now, it, j, res, nil)
						return
					}
				}
			}
		}
	}
	ports := make([]market.ServerPort, len(candidates))
	for i, s := range candidates {
		ports[i] = s
	}
	bids := mech.Solicit(now, ports, it.Contract, g.cfg.Criterion, serial)
	if g.cfg.CommitDelay <= 0 {
		res, err := market.CommitPriced(now, ports, bids, it.ID, g.cfg.SinglePhase, mech)
		g.finishAward(now, it, j, res, err)
		return
	}
	g.eng.After(sim.Duration(g.cfg.CommitDelay), "commit:"+it.ID, func(e *sim.Engine) {
		t := float64(e.Now())
		res, err := market.CommitPriced(t, ports, bids, it.ID, g.cfg.SinglePhase, mech)
		g.finishAward(t, it, j, res, err)
	})
}

// finishAward books the outcome of a commit walk.
func (g *gridRun) finishAward(now float64, it workload.Item, j *job.Job, res market.AwardResult, err error) {
	delete(g.placing, it.ID)
	if res.Attempts > 0 {
		g.metrics.S("award_attempts").Add(float64(res.Attempts))
	}
	g.metrics.C("commit.declined").Addn(uint64(len(res.Declined)))
	if err != nil {
		g.res.Rejected++
		g.metrics.C("jobs.rejected").Inc()
		_ = j.Reject(now)
		return
	}
	g.placed(now, it, res)
}

func (g *gridRun) placed(now float64, it workload.Item, res market.AwardResult) {
	g.res.Placed++
	g.metrics.C("jobs.placed").Inc()
	g.metrics.S("bid_multiplier").Add(res.Bid.Multiplier)
}
