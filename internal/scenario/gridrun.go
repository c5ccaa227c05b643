package scenario

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"faucets/internal/client"
	"faucets/internal/grid"
	"faucets/internal/market"
	"faucets/internal/protocol"
	"faucets/internal/telemetry"
	"faucets/internal/workload"
)

// RunGrid executes the scenario as OPEN-LOOP load against a live
// loopback TCP grid (internal/grid): real wire protocol, real daemons,
// real settlement, with the scenario's chaos profiles faulting the
// daemons they name.
//
// Open-loop means the driver fires every submission at its scheduled
// wall instant (SubmitAt / TimeScale seconds after start) regardless of
// how many earlier jobs have completed, committed, or even answered.
// A closed-loop harness — submit, wait, submit — self-throttles
// exactly when the grid degrades, hiding the overload it was supposed
// to measure; an open-loop one keeps the offered load fixed so shed
// counts, breaker trips, and latency tails mean what they say. The
// report's OpenLoop block records how faithfully the schedule was held.
//
// The trace is the same one RunSim replays (same seed ⇒ same jobs), so
// a gridsim dry run and a live soak of one scenario are comparing
// mechanisms, not workloads.
func RunGrid(s *Spec) (*ScenarioReport, error) {
	return RunGridWithHooks(s, GridHooks{})
}

// GridHooks lets a caller intervene in a live-grid run — the soak
// tests' way of injecting control-plane faults (killing a shard,
// restarting a daemon) at a deterministic point in the workload.
type GridHooks struct {
	// MidRun, when set, is called synchronously from the dispatch loop
	// once half the trace has been fired. Submissions scheduled while it
	// runs fire immediately afterwards (open-loop targets are absolute),
	// so a slow hook shows up as submit lag, not a rate change.
	MidRun func(g *grid.Grid) error
}

// RunGridWithHooks is RunGrid with fault-injection hooks.
func RunGridWithHooks(s *Spec, hooks GridHooks) (*ScenarioReport, error) {
	trace, err := s.GenerateTrace()
	if err != nil {
		return nil, err
	}
	machines, err := s.machines()
	if err != nil {
		return nil, err
	}

	ts := s.Grid.TimeScale
	if ts <= 0 {
		ts = 1000
	}
	clusters := make([]grid.ClusterSpec, 0, len(machines))
	for _, m := range machines {
		factory, err := schedulerFactory(m.Scheduler)
		if err != nil {
			return nil, err
		}
		bidder, err := makeBidder(m.Bidder)
		if err != nil {
			return nil, err
		}
		cs := grid.ClusterSpec{
			Spec:         m.Spec,
			Apps:         m.Apps,
			NewScheduler: factory,
			Bidder:       bidder,
		}
		if m.Chaos != nil {
			cs.Chaos = m.Chaos.Injector()
		}
		clusters = append(clusters, cs)
	}

	opts := grid.Options{
		TimeScale:        ts,
		Users:            map[string]string{"scenario": "pw"},
		RPCTimeout:       msOr(s.Grid.RPCTimeoutMs, 500),
		BidTimeout:       msOr(s.Grid.BidTimeoutMs, 0),
		SettleRetry:      msOr(s.Grid.SettleRetryMs, 25),
		MaxInflight:      s.Grid.MaxInflight,
		BreakerThreshold: s.Grid.BreakerThreshold,
		BreakerCooldown:  msOr(s.Grid.BreakerCooldownMs, 0),
		HedgeQuantile:    s.Grid.HedgeQuantile,
		Mechanism:        s.Mechanism,
		Shards:           s.Topology.Shards,
		GossipInterval:   msOr(s.Grid.GossipIntervalMs, 0),
	}
	if hooks.MidRun != nil {
		// Fault hooks restart components from durable state; an in-memory
		// grid would come back amnesiac.
		dir, err := os.MkdirTemp("", "faucets-scenario-*")
		if err != nil {
			return nil, fmt.Errorf("scenario: state dir: %w", err)
		}
		defer os.RemoveAll(dir)
		opts.StateDir = dir
	}
	g, err := grid.Start(clusters, opts)
	if err != nil {
		return nil, fmt.Errorf("scenario: grid start: %w", err)
	}
	defer g.Close()

	cl, err := g.Login("scenario", "pw")
	if err != nil {
		return nil, fmt.Errorf("scenario: login: %w", err)
	}
	defer cl.Close()

	// Fleet-utilization sampler: poll every daemon's used-PE gauge on a
	// fixed wall cadence and average. Time-weighted enough at 10ms
	// against runs lasting hundreds of ms and up.
	type utilSample struct{ sum, n float64 }
	utilStop := make(chan struct{})
	utilByServer := make(map[string]*utilSample, len(machines))
	var utilWG sync.WaitGroup
	for i := range machines {
		utilByServer[machines[i].Spec.Name] = &utilSample{}
	}
	utilWG.Add(1)
	go func() {
		defer utilWG.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-utilStop:
				return
			case <-tick.C:
				for i, d := range g.Daemons {
					var sb strings.Builder
					if err := d.Metrics().WritePrometheus(&sb); err != nil {
						continue
					}
					used, ok := telemetry.SampleValue(sb.String(), "faucets_daemon_used_pes")
					if !ok {
						continue
					}
					u := utilByServer[machines[i].Spec.Name]
					u.sum += used / float64(machines[i].Spec.NumPE)
					u.n++
				}
			}
		}
	}()

	// ---- Open-loop dispatch ----------------------------------------
	type outcome struct {
		item     workload.Item
		place    *client.Placement
		dispatch time.Time // wall instant Place was issued
		finish   time.Time // wall instant a status poll first read "finished"; zero = never
		ttcMs    float64
		shed     bool
		rejected bool
	}
	var (
		mu       sync.Mutex
		outs     = make([]*outcome, 0, len(trace.Items))
		wg       sync.WaitGroup
		maxLagMs float64
	)
	// drained closes one drain timeout after the last submission fired:
	// the point past which an unfinished job is reported unfinished.
	drained := make(chan struct{})
	start := time.Now()
	var lastFire time.Time
	for i, it := range trace.Items {
		if hooks.MidRun != nil && i == len(trace.Items)/2 {
			if err := hooks.MidRun(g); err != nil {
				return nil, fmt.Errorf("scenario: mid-run hook: %w", err)
			}
		}
		target := start.Add(time.Duration(it.SubmitAt / ts * float64(time.Second)))
		if d := time.Until(target); d > 0 {
			time.Sleep(d)
		}
		fire := time.Now()
		lastFire = fire
		if lag := fire.Sub(target).Seconds() * 1000; lag > maxLagMs {
			maxLagMs = lag
		}
		it := it
		wg.Add(1)
		// The placement runs concurrently: the dispatch loop never waits
		// for an auction, let alone a completion — that is the property
		// TestOpenLoopHoldsSchedule pins.
		go func() {
			defer wg.Done()
			o := &outcome{item: it, dispatch: time.Now()}
			p, err := cl.Place(it.Contract, market.LeastCost{})
			o.ttcMs = time.Since(o.dispatch).Seconds() * 1000
			if err != nil {
				if protocol.IsOverloaded(err) {
					o.shed = true
				} else {
					o.rejected = true
				}
			} else if err := cl.Start(p); err != nil {
				o.rejected = true
			} else if o.finish, err = watchFinish(cl, p, drained); err != nil {
				o.rejected = true
			} else {
				o.place = p
			}
			mu.Lock()
			outs = append(outs, o)
			mu.Unlock()
		}()
	}

	// ---- Drain: completions, then settlements ----------------------
	drain := msOr(s.Grid.DrainTimeoutMs, 30_000)
	deadline := time.Now().Add(drain)
	drainTimer := time.AfterFunc(drain, func() { close(drained) })
	wg.Wait()
	drainTimer.Stop()
	finished := 0
	for _, o := range outs {
		if !o.finish.IsZero() {
			finished++
		}
	}
	// Give settlement outboxes a moment to flush every finished job into
	// the Central Server's contract history.
	for time.Now().Before(deadline) && g.HistoryLen() < finished {
		time.Sleep(5 * time.Millisecond)
	}
	close(utilStop)
	utilWG.Wait()
	wall := time.Since(start).Seconds()

	// Per-job settlement instants from the contract history (Time is
	// wall unix seconds on the live Central Server).
	settleAt := map[string]float64{}
	for _, rec := range g.Contracts(len(trace.Items) + 1) {
		settleAt[rec.JobID] = rec.Time
	}

	// ---- Report -----------------------------------------------------
	r := &ScenarioReport{
		Scenario:             s.Name,
		Backend:              "grid",
		Mechanism:            s.MechanismName(),
		Seed:                 s.Seed,
		Servers:              len(machines),
		Jobs:                 len(trace.Items),
		Submitted:            len(outs),
		RevenuePerServer:     map[string]float64{},
		UtilizationPerServer: map[string]float64{},
		Counters:             map[string]float64{},
		WallSeconds:          wall,
	}
	var ttc, resp, lag []float64
	for _, o := range outs {
		switch {
		case o.shed:
			r.Shed++
		case o.rejected:
			r.Rejected++
		default:
			r.Placed++
			ttc = append(ttc, o.ttcMs)
		}
		if o.place == nil {
			continue
		}
		fin := o.finish
		if fin.IsZero() {
			continue
		}
		r.Finished++
		// Virtual response time: wall dispatch→finish compressed back
		// through the timescale, the same clock the contracts are in.
		vresp := fin.Sub(o.dispatch).Seconds() * ts
		resp = append(resp, vresp)
		if !o.item.Contract.Payoff.Zero() {
			if hd := o.item.Contract.HardDeadline(); hd > 0 && vresp > hd {
				r.DeadlineMissed++
			} else {
				r.DeadlineMet++
			}
		}
		if at, ok := settleAt[o.place.JobID]; ok {
			r.Settled++
			l := (at - float64(fin.UnixNano())/1e9) * 1000
			if l < 0 {
				// Settlement can land before our next status poll
				// observes the finish; that is lag zero, not negative.
				l = 0
			}
			lag = append(lag, l)
		}
	}
	r.TTC = Summarize(ttc)
	r.Response = Summarize(resp)
	r.SettleLag = Summarize(lag)
	if n := r.DeadlineMet + r.DeadlineMissed; n > 0 {
		r.DeadlineMissRate = float64(r.DeadlineMissed) / float64(n)
	}

	totalPE := 0
	var busyPE float64
	for _, m := range machines {
		name := m.Spec.Name
		r.RevenuePerServer[name] = g.Revenue(name)
		r.Revenue += r.RevenuePerServer[name]
		if u := utilByServer[name]; u.n > 0 {
			r.UtilizationPerServer[name] = u.sum / u.n
			busyPE += (u.sum / u.n) * float64(m.Spec.NumPE)
		}
		totalPE += m.Spec.NumPE
	}
	if totalPE > 0 {
		r.Utilization = busyPE / float64(totalPE)
	}

	// Overload-protection counters scraped from the live registries —
	// summed over every control-plane shard (one registry, the classic
	// case, on an unsharded grid).
	regs := []*telemetry.Registry{g.Central.Metrics}
	if len(g.Shards) > 0 {
		regs = regs[:0]
		for _, sv := range g.Shards {
			regs = append(regs, sv.Metrics)
		}
	}
	for _, reg := range regs {
		var central strings.Builder
		if err := reg.WritePrometheus(&central); err != nil {
			continue
		}
		text := central.String()
		scrape(r.Counters, text, "central.shed.inflight", `faucets_central_shed_total{reason="inflight"}`)
		scrape(r.Counters, text, "central.shed.deadline", `faucets_central_shed_total{reason="deadline"}`)
		scrape(r.Counters, text, "central.jobs_settled", "faucets_central_jobs_settled_total")
		scrape(r.Counters, text, "central.gossip_sent", "faucets_central_gossip_sent_total")
		scrape(r.Counters, text, "central.forwarded_settles", "faucets_central_forwarded_settles_total")
		scrape(r.Counters, text, "client.breaker_skips", "faucets_auction_breaker_skips_total")
	}
	for _, d := range g.Daemons {
		var sb strings.Builder
		if err := d.Metrics().WritePrometheus(&sb); err != nil {
			continue
		}
		text := sb.String()
		if v, ok := telemetry.SampleValue(text, "faucets_daemon_jobs_finished_total"); ok {
			r.Counters["daemon.jobs_finished"] += v
		}
		if v, ok := telemetry.SampleValue(text, "faucets_daemon_outbox_poison_total"); ok {
			r.Counters["daemon.outbox_poison"] += v
		}
	}

	// ---- Open-loop fidelity -----------------------------------------
	if len(trace.Items) > 1 {
		span := trace.Items[len(trace.Items)-1].SubmitAt / ts // scheduled wall window
		achievedSpan := lastFire.Sub(start).Seconds()
		ol := &OpenLoopStats{MaxSubmitLagMs: maxLagMs}
		if span > 0 {
			ol.ScheduledJobsPerSec = float64(len(trace.Items)) / span
		}
		if achievedSpan > 0 {
			ol.AchievedJobsPerSec = float64(len(outs)) / achievedSpan
		}
		if ol.ScheduledJobsPerSec > 0 {
			ol.RateError = (ol.AchievedJobsPerSec - ol.ScheduledJobsPerSec) / ol.ScheduledJobsPerSec
		}
		r.OpenLoop = ol
	}
	return r, nil
}

// watchFinish polls a started job's status until it reads "finished"
// and returns that wall instant; zero if giveUp closes first. A job the
// daemon reports rejected or killed is an error.
//
// RunGrid calls it from the job's own placement goroutine as soon as
// Start is acknowledged, so a finish is stamped when it happens: not
// when the arrival schedule ends, and not a sweep over hundreds of other
// jobs later. Either would inflate every response quantile and deadline
// miss by the wait.
func watchFinish(cl *client.Client, p *client.Placement, giveUp <-chan struct{}) (time.Time, error) {
	for {
		if st, err := cl.Status(p); err == nil {
			switch st.State {
			case "finished":
				return time.Now(), nil
			case "rejected", "killed":
				return time.Time{}, fmt.Errorf("scenario: job %s %s", p.JobID, st.State)
			}
		}
		select {
		case <-giveUp:
			return time.Time{}, nil
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

// scrape accumulates, so a counter present in several shard registries
// sums to the grid-wide total (and a single registry reads unchanged).
func scrape(into map[string]float64, text, key, selector string) {
	if v, ok := telemetry.SampleValue(text, selector); ok {
		into[key] += v
	}
}

func msOr(ms float64, def float64) time.Duration {
	if ms <= 0 {
		ms = def
	}
	return time.Duration(ms * float64(time.Millisecond))
}
