package main

import (
	"math/rand"
	"strings"
	"sync"
	"time"

	"faucets/internal/market"
	"faucets/internal/qos"
	"faucets/internal/telemetry"
)

// auctionPhase accumulates the closed-loop Place windows of one kind.
type auctionPhase struct {
	windowAcc
	log *spanLog

	mu        sync.Mutex
	attempted int
	completed int
	failed    int
	attempts  int // commit attempts, summed
	errs      errCounts
	ids       map[string]bool
	duplicate int

	ttc            samples // ms
	list, sol, com samples // us
}

func newAuctionPhase(log *spanLog) *auctionPhase {
	return &auctionPhase{log: log, ids: map[string]bool{}}
}

func (ph *auctionPhase) fail(reason string) {
	ph.mu.Lock()
	ph.attempted++
	ph.failed++
	ph.errs.note(reason)
	ph.mu.Unlock()
}

// genContracts draws the closed-loop callers' job shapes: the same ranges
// as the trips, so every one of the 16 daemons can bid on every job.
func genContracts(rng *rand.Rand, n int) []*qos.Contract {
	out := make([]*qos.Contract, n)
	for i, in := range genTrips(rng, n, time.Second, 1) {
		out[i] = in.contract
	}
	return out
}

// auctionWindow runs the sessions' closed loops for the given length,
// accumulating into ph. Each auction is checked on the spot: the winning
// daemon must have recorded the contract under the job ID Place returned.
func auctionWindow(lg *liveGrid, contracts []*qos.Contract, length time.Duration, ph *auctionPhase) {
	from := ph.begin(lg.snapshot)
	closedLoop(len(lg.sessions), time.Now().Add(length), func(caller, seq int) {
		c := contracts[(seq*len(lg.sessions)+caller)%len(contracts)]
		start := time.Now()
		p, err := lg.sessions[caller].Place(c, market.LeastCost{})
		end := time.Now()
		if err != nil {
			ph.fail("place: " + err.Error())
			return
		}
		evs := lg.g.Tracer.Events(p.JobID)
		st := readStamps(evs)
		committed := false
		for _, e := range evs {
			if e.Name == telemetry.SpanContract && strings.Contains(e.Detail, "committed to "+p.Server.Spec.Name+" ") {
				committed = true
			}
		}
		ph.mu.Lock()
		ph.attempted++
		switch {
		case ph.ids[p.JobID]:
			ph.duplicate++
			ph.failed++
		case !committed:
			ph.failed++
		default:
			ph.completed++
			ph.m.done.Add(1)
		}
		ph.ids[p.JobID] = true
		ph.attempts += p.Attempts
		ph.observe(end, float64(end.Sub(start))/1e6)
		ph.ttc.addSince(start, end, time.Millisecond)
		ph.list.addSince(start, st.submit, time.Microsecond)
		ph.sol.addSince(st.submit, st.bid, time.Microsecond)
		ph.com.addSince(st.bid, end, time.Microsecond)
		ph.mu.Unlock()
		if ph.log != nil {
			recordPlaceSpans(ph.log, p.JobID, "", start, st.submit, st.bid, end)
		}
	})
	ph.end(from, lg.snapshot)
}

func runAuctionWide(cfg *runCfg) (*workloadResult, error) {
	const name = wAuctionWide
	gs := gridSpec{clusters: fleet(wideDaemons, 0, true), users: userNames(2), sessions: 2}
	var contracts []*qos.Contract
	gen := func() { contracts = genContracts(rand.New(rand.NewSource(cfg.seed)), 4096) }
	lg, readyS, err := setupLive(cfg, gs, gen)
	if err != nil {
		return nil, err
	}
	res := newResult(cfg, name)
	led := newLedger()
	var log *spanLog
	if cfg.trace {
		log = newSpanLog()
	}

	warmStart := time.Now()
	auctionWindow(lg, contracts, warmup, newAuctionPhase(nil))
	warmS := time.Since(warmStart).Seconds()
	phases := map[bool]*auctionPhase{false: newAuctionPhase(nil), true: newAuctionPhase(log)}
	for _, traced := range cfg.plan() {
		auctionWindow(lg, contracts, cfg.windowLen(), phases[traced])
	}
	ph := phases[false]
	jobs := float64(ph.completed)
	res.Attempted, res.Failed = ph.attempted, ph.failed
	res.setEndToEnd(name, map[string]float64{
		"setup_s":             readyS + warmS,
		"ready_s":             readyS,
		"jobs_per_s":          ph.jobsPerSecond(jobs),
		"fail_ratio":          ratio(float64(ph.failed), float64(ph.attempted)),
		"latency_p50_ms":      ph.latencyMs(50),
		"latency_p90_ms":      ph.latencyMs(90),
		"ttc_p50_ms":          ph.ttc.pct(50),
		"ttc_p90_ms":          ph.ttc.pct(90),
		"cpu_ms_per_job":      ph.cpuMsPerJob(jobs),
		"alloc_kb_per_job":    ratio(ph.d.allocKB, jobs),
		"retained_kb_per_job": ratio(ph.d.retainedKB, jobs),
	})
	res.Samples = map[string]int{"ttc": len(ph.ttc)}
	res.noteErrors(ph.errs)

	if cfg.trace {
		tph := phases[true]
		lv := newLayerValues()
		lv["client.place_p50_us"] = 1e3 * tph.ttc.pct(50)
		lv["client.ttc_p99_ms"], _ = tph.ttc.tail(99)
		lv["client.inflight_max"] = float64(len(lg.sessions))
		lv["central.list_servers_rtt_p50_us"] = tph.list.pct(50)
		lv["market.solicit_p50_us"] = tph.sol.pct(50)
		lv["market.commit_p50_us"] = tph.com.pct(50)
		lv["market.commit_attempts_per_job"] = ratio(float64(tph.attempts), float64(len(tph.ttc)))
		all := sumDeltas(ph.d, tph.d)
		lv.fromScrape(all, float64(ph.attempted+tph.attempted))
		lv["grid.tracing_overhead_pct"] = overheadPct(ph.ttc.pct(50), tph.ttc.pct(50))
		res.finishTraced(cfg, lv, lg, led, log)
		res.noteErrors(tph.errs)
		res.Attempted += tph.attempted
		res.Failed += tph.failed
		ph.duplicate += tph.duplicate
	}

	res.addChecks(checkf("contracts-unique-and-committed", res.Failed == 0 && ph.duplicate == 0,
		"%d auctions: %d failed, %d duplicate job IDs", res.Attempted, res.Failed, ph.duplicate))
	// Nothing ran, so the only settlements are the probes' own.
	res.addChecks(lg.verifyBooks(led)...)
	lg.close()
	return res, nil
}
