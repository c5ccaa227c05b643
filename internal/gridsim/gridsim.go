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
	"cmp"
	"errors"
	"fmt"
	"slices"

	"faucets/internal/accounting"
	"faucets/internal/bidding"
	"faucets/internal/db"
	"faucets/internal/job"
	"faucets/internal/machine"
	"faucets/internal/market"
	"faucets/internal/qos"
	"faucets/internal/scheduler"
	"faucets/internal/server"
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
	// DB is the shared database (accounts and contract history).
	DB *db.DB
}

// serverEntity is one Compute Server object in the simulation: its core
// bids, holds, admits and counts queued work, as the live daemon's does.
type serverEntity struct {
	g    *gridRun
	name string
	home string
	core server.Core
	// The core's scheduler and sched.Spec(), kept for reading.
	sched scheduler.Scheduler
	spec  machine.Spec

	completion sim.Event // the next completion, re-armed by refresh
	util       *sim.TimeWeighted
	revenue    float64
	payoff     float64
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
	placing map[string]placement
	// awards holds each admitted job's placement, priced, from its Commit
	// until settle books it, so it holds only the jobs in flight.
	awards map[*job.Job]placement
	res    *Result

	// Per-run scratch for one auction: the solicited ports, the home
	// cluster's port and the ranked bids.
	ports    []market.ServerPort
	homePort [1]market.ServerPort
	bids     []bidding.Bid

	// The per-job statistics, through stat; the series through g.series.
	bidReq, bidReply, postRead, commits, declined, jobsPlaced, met, missed *sim.Counter
	response, slowdown, price, payoff, attempts, multiplier                *sim.Series
	// jobs holds one record per trace item, in trace order, so each
	// per-job series reserves room for len(jobs) observations.
	jobs []job.Job
}

// stat returns the named statistic through *p, looking it up by name on
// first use only: a run that never records it must not report it.
func stat[T any](p **T, lookup func(string) *T, name string) *T {
	if *p == nil {
		*p = lookup(name)
	}
	return *p
}

// series looks up a per-job series for stat and reserves room for one
// observation per job in the trace.
func (g *gridRun) series(name string) *sim.Series {
	s := g.metrics.S(name)
	s.Grow(len(g.jobs))
	return s
}

// placement carries the context a Commit callback needs, and once a
// Commit admits the job, the price it accepted for settle to book.
type placement struct {
	j     *job.Job
	home  string
	price float64
}

// ServerPort adapter: bid solicitation.
func (s *serverEntity) ServerName() string { return s.name }

// RequestBid implements market.ServerPort against the local scheduler and
// bid generator, counting protocol messages for the scalability
// experiments.
func (s *serverEntity) RequestBid(now float64, c *qos.Contract) (bidding.Bid, bool) {
	g := s.g
	stat(&g.bidReq, g.metrics.C, "messages.bid_req").Inc()
	b, ok := s.core.Bid(now, c, s.core.State(now, c))
	if ok {
		stat(&g.bidReply, g.metrics.C, "messages.bid_reply").Inc()
	}
	return b, ok
}

// Post implements market.PostPort: the server's commodity post, read
// straight from its published weather with no bid round trip. The
// static screen is what a directory listing supports; the scheduler still
// arbitrates at commit time, which is the posted-price mechanism's
// admission risk.
func (s *serverEntity) Post(now float64, c *qos.Contract) (bidding.Bid, bool) {
	stat(&s.g.postRead, s.g.metrics.C, "messages.post_read").Inc()
	return bidding.PostedBid(s.name, now, c,
		bidding.PostedState(&s.spec, s.sched.UsedPEs(), c.FitsMachine(s.spec.NumPE, s.spec.MemPerPE)))
}

// Commit implements market.ServerPort: phase two and the start at one
// instant — the core holds the job for its user and the submit spends
// the hold — since a simulated client has no files to stage in between.
func (s *serverEntity) Commit(now float64, jobID string, b bidding.Bid) error {
	stat(&s.g.commits, s.g.metrics.C, "messages.commit").Inc()
	pl, ok := s.g.placing[jobID]
	if !ok {
		return errors.New("gridsim: unknown job in commit")
	}
	if !s.g.acct.CanAfford(pl.j.Owner, pl.home, s.home, b.Price) {
		return fmt.Errorf("gridsim: %s cannot afford %s on %s", pl.j.Owner, jobID, s.name)
	}
	if err := s.core.Commit(now, jobID, pl.j.Owner, b); err != nil {
		return err
	}
	var err error
	if pl.price, err = s.core.Submit(now, pl.j); err != nil {
		s.g.metrics.C("commit.refused").Inc()
		return err
	}
	s.g.awards[pl.j] = pl
	s.refresh(now)
	return nil
}

// refresh re-registers the server's next-completion event after any
// state change.
func (s *serverEntity) refresh(now float64) {
	s.util.Set(sim.Time(now), float64(s.sched.UsedPEs()))
	t, ok := s.sched.NextCompletion(now)
	if !ok {
		s.g.eng.Cancel(&s.completion)
		return
	}
	if t < now {
		t = now
	}
	s.g.eng.Rearm(&s.completion, sim.Time(t))
}

// onCompletion advances the scheduler and settles finished jobs.
func (s *serverEntity) onCompletion(now float64) {
	finished := s.core.Advance(now)
	for _, j := range finished {
		s.settle(now, j)
	}
	s.refresh(now)
}

// settle books revenue, payoff, history and metrics for a finished job.
func (s *serverEntity) settle(now float64, j *job.Job) {
	g := s.g
	pl := g.awards[j]
	delete(g.awards, j)

	g.res.Finished++
	stat(&g.response, g.series, "response_time").Add(j.ResponseTime())
	// Bounded slowdown: response over service time, floored at 10s of
	// service so tiny jobs don't dominate the statistic.
	service := j.FinishTime - j.StartTime
	if service < 10 {
		service = 10
	}
	stat(&g.slowdown, g.series, "slowdown").Add(j.ResponseTime() / service)
	stat(&g.price, g.series, "price").Add(pl.price)
	// The charge and the history row the §5.2.1 bidders read: both or neither.
	row := db.ContractRecord{
		Time: now, JobID: string(j.ID), App: j.Contract.App, Server: s.name,
		MinPE: j.Contract.MinPE, MaxPE: j.Contract.MaxPE, Price: pl.price,
	}
	if g.store.Update(func(tx *db.Tx) error {
		return g.acct.Book(tx, j.Owner, pl.home, &row, j.CPUUsed(), s.spec.CostRate)
	}) == nil {
		s.revenue += pl.price
	}
	if !j.Contract.Payoff.Zero() {
		v := j.Payout()
		s.payoff += v
		stat(&g.payoff, g.series, "payoff").Add(v)
		if j.MetDeadline() {
			stat(&g.met, g.metrics.C, "deadline.met").Inc()
		} else {
			stat(&g.missed, g.metrics.C, "deadline.missed").Inc()
		}
	}
}

// Storage is the per-job storage of a run: one record per job, the
// database with its contract history, the metrics registry with its
// per-job series, the maps of awards in flight, and the server entities,
// whose cores keep their hold tables. A run resets each, keeping its
// capacity, so a sweep of replays through one Storage regrows none of
// them. The Result of a run reads from the Storage: it is valid until
// the Storage's next run.
type Storage struct {
	jobs    []job.Job
	store   *db.DB
	metrics *sim.Metrics
	placing map[string]placement
	awards  map[*job.Job]placement
	servers []serverEntity
}

// Run executes a trace against a grid configuration and returns the
// measurements.
func Run(cfg Config, trace *workload.Trace) (*Result, error) {
	return new(Storage).Run(cfg, trace)
}

// Run is the package's Run on st's storage. The trace's items and
// contracts must stay unchanged until it returns.
func (st *Storage) Run(cfg Config, trace *workload.Trace) (*Result, error) {
	res, _, err := st.run(cfg, trace)
	return res, err
}

func (st *Storage) run(cfg Config, trace *workload.Trace) (*Result, *gridRun, error) {
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
	if st.store == nil {
		st.store, st.metrics = db.New(), sim.NewMetrics()
		st.placing, st.awards = map[string]placement{}, map[*job.Job]placement{}
	} else {
		st.store.Reset()
		st.metrics.Reset()
		clear(st.placing)
		clear(st.awards)
	}
	store := st.store
	g := &gridRun{
		cfg:     cfg,
		mech:    mech,
		eng:     sim.NewEngine(),
		byName:  map[string]*serverEntity{},
		metrics: st.metrics,
		store:   store,
		acct:    accounting.New(cfg.Mode, store),
		placing: st.placing,
		awards:  st.awards,
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
	// Each server's entity is reused, and with it its core's hold table.
	st.servers = slices.Grow(st.servers[:0], len(cfg.Servers))[:len(cfg.Servers)]
	for i, sc := range cfg.Servers {
		if err := sc.Spec.Validate(); err != nil {
			return nil, nil, fmt.Errorf("gridsim: %w", err)
		}
		factory := sc.NewScheduler
		if factory == nil {
			factory = func(sp machine.Spec, c scheduler.Config) scheduler.Scheduler {
				return scheduler.NewEquipartition(sp, c)
			}
		}
		home := sc.Home
		if home == "" {
			home = sc.Spec.Name
		}
		// The §5.2.1 grid-weather and contract-history sources of a bidder
		// made without one: in simulation the Faucets system's global
		// information is the grid itself.
		if w, ok := sc.Bidder.(*bidding.Weather); ok && w.Source == nil {
			w.SetSource(gridWeatherSource{g: g})
		}
		if h, ok := sc.Bidder.(*bidding.History); ok && h.View == nil {
			h.View = storeHistoryView{store: g.store}
		}
		sched := factory(sc.Spec, cfg.SchedCfg)
		ent := &st.servers[i]
		*ent = serverEntity{g: g, name: sc.Spec.Name, home: home, core: ent.core,
			sched: sched, spec: sched.Spec(), util: g.metrics.L("util." + sc.Spec.Name)}
		ent.core.Reset(ent.spec, sched, sc.Bidder)
		ent.completion = sim.Event{Name: "completion:" + sc.Spec.Name,
			Fn: func(e *sim.Engine) { ent.onCompletion(float64(e.Now())) }}
		ent.util.Set(0, 0)
		g.servers = append(g.servers, ent)
		g.byName[ent.name] = ent
	}

	// One event walks the trace in SubmitAt order, re-armed for the next
	// item each time it fires. Priority -1 keeps the order one event per
	// item scheduled up front gave: at any instant the submissions due
	// fire, in trace order, before the completions and commits due then.
	items := trace.Items
	bySubmit := func(a, b workload.Item) int { return cmp.Compare(a.SubmitAt, b.SubmitAt) }
	if !slices.IsSortedFunc(items, bySubmit) {
		items = slices.Clone(items)
		slices.SortStableFunc(items, bySubmit)
	}
	// The trace fixes how many jobs the run can settle, so the job
	// records and the per-job series are sized once rather than regrown.
	st.jobs = slices.Grow(st.jobs[:0], len(items))[:len(items)]
	g.jobs = st.jobs
	next := 0
	submit := sim.Event{Name: "submit", Priority: -1}
	submit.Fn = func(e *sim.Engine) {
		g.submit(float64(e.Now()), &g.jobs[next], items[next])
		if next++; next < len(items) {
			e.Rearm(&submit, sim.Time(items[next].SubmitAt))
		}
	}
	if len(items) > 0 {
		g.eng.Rearm(&submit, sim.Time(items[0].SubmitAt))
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
			target := g.findPromptServer(now, origin, j)
			if target == nil {
				continue
			}
			// Evict only after the target admits: a refusal leaves the job
			// home. The queued work moves with the job, and so does its award.
			if !target.core.Adopt(now, j) {
				continue
			}
			if !origin.core.Evict(now, j) {
				panic(fmt.Sprintf("gridsim: %s admitted on %s but not evicted from %s: it would run twice",
					j.ID, target.name, origin.name))
			}
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

// eligible appends to dst the servers a user may solicit, honoring the
// access policy and, when enabled, the §5.1 static feasibility filter.
func (g *gridRun) eligible(dst []market.ServerPort, user string, c *qos.Contract) []market.ServerPort {
	if allowed, restricted := g.cfg.Access[user]; restricted {
		for _, name := range allowed {
			if s, ok := g.byName[name]; ok {
				dst = g.screen(dst, s, c)
			}
		}
		return dst
	}
	for _, s := range g.servers {
		dst = g.screen(dst, s, c)
	}
	return dst
}

// screen appends s to dst unless the static feasibility filter is on and
// s cannot run the contract.
func (g *gridRun) screen(dst []market.ServerPort, s *serverEntity, c *qos.Contract) []market.ServerPort {
	if g.cfg.FilterFeasible && !c.FitsMachine(s.spec.NumPE, s.spec.MemPerPE) {
		g.metrics.C("filter.screened").Inc()
		return dst
	}
	return append(dst, s)
}

// submit is the client-entity behaviour for one trace item: identify
// candidate servers (home-first if configured), run the award protocol,
// and count the outcome. With CommitDelay configured, bids are solicited
// now and the commit walk fires in a later event, overlapping with other
// clients' solicitations (§5.3). The job's record is made in *j.
func (g *gridRun) submit(now float64, j *job.Job, it workload.Item) {
	*j = job.Make(job.ID(it.ID), it.User, it.Contract, now)
	home := g.cfg.HomeOf[it.User]
	g.placing[it.ID] = placement{j: j, home: home}

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

	// Screened before the home cluster is tried: filter.screened counts
	// every submission, home-first or not.
	g.ports = g.eligible(g.ports[:0], it.User, it.Contract)
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
			g.homePort[0] = hs
			g.bids = mech.Solicit(g.bids, now, g.homePort[:], it.Contract, g.cfg.Criterion, serial)
			if len(g.bids) > 0 {
				prompt := now + it.Contract.ExecTime(it.Contract.MinPE, hs.spec.Speed)
				if g.bids[0].EstCompletion <= prompt+1e-9 {
					if res, err := market.CommitPriced(now, g.homePort[:], g.bids, it.ID, g.cfg.SinglePhase, mech); err == nil {
						g.finishAward(now, it, j, res, nil)
						return
					}
				}
			}
		}
	}
	g.bids = mech.Solicit(g.bids, now, g.ports, it.Contract, g.cfg.Criterion, serial)
	if g.cfg.CommitDelay <= 0 {
		res, err := market.CommitPriced(now, g.ports, g.bids, it.ID, g.cfg.SinglePhase, mech)
		g.finishAward(now, it, j, res, err)
		return
	}
	// The delayed commit holds its ports and bids until it fires, past the
	// next submission's reuse of the scratch: it gets copies.
	ports, bids := slices.Clone(g.ports), slices.Clone(g.bids)
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
		stat(&g.attempts, g.series, "award_attempts").Add(float64(res.Attempts))
	}
	stat(&g.declined, g.metrics.C, "commit.declined").Addn(uint64(len(res.Declined)))
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
	stat(&g.jobsPlaced, g.metrics.C, "jobs.placed").Inc()
	stat(&g.multiplier, g.series, "bid_multiplier").Add(res.Bid.Multiplier)
}
