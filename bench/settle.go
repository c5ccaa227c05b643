package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"faucets/internal/protocol"
)

// settleStream is one daemon's outbox as the bench plays it: a serial
// stream of settlement requests with a connection pool of its own, like
// the pool each real daemon holds.
type settleStream struct {
	server string
	rng    *rand.Rand
	pool   *protocol.Pool
	seq    int
	last   *protocol.SettleReq // the latest acknowledged request
}

// next draws the stream's next request. About one in a hundred is a
// deliberate redelivery of the previous, already acknowledged request —
// the lost-ack case — which the Central Server must acknowledge again and
// charge nothing for.
func (s *settleStream) next(users []string) (req protocol.SettleReq, redelivery bool) {
	if s.last != nil && s.rng.Intn(100) < redeliverPct {
		return *s.last, true
	}
	s.seq++
	return protocol.SettleReq{
		JobID:      fmt.Sprintf("sf-%s-%d", s.server, s.seq),
		User:       users[s.rng.Intn(len(users))],
		Server:     s.server,
		App:        benchApp,
		MinPE:      1 + s.rng.Intn(4),
		MaxPE:      4 + s.rng.Intn(13),
		Price:      float64(1+s.rng.Intn(5000)) / 100,
		CPUSeconds: 1 + 19*s.rng.Float64(),
	}, false
}

// settlePhase accumulates the settle windows of one kind.
type settlePhase struct {
	windowAcc
	log *spanLog

	mu          sync.Mutex
	attempted   int
	completed   int // fresh settlements durably acknowledged
	failed      int
	redelivered int
	errs        errCounts
	rtt         samples // ms, fresh and redelivered alike
}

// settleWindow runs every stream's closed loop for the given length.
func settleWindow(lg *liveGrid, streams []*settleStream, users []string, led *ledger, length time.Duration, ph *settlePhase) {
	from := ph.begin(lg.snapshot)
	closedLoop(len(streams), time.Now().Add(length), func(caller, _ int) {
		s := streams[caller]
		req, again := s.next(users)
		var ok protocol.SettleOK
		start := time.Now()
		err := s.pool.Call(lg.g.CentralAddr, 0, protocol.TypeSettleReq, req, protocol.TypeSettleOK, &ok)
		end := time.Now()
		// From outside, a settlement is one span: the request's round trip.
		ph.log.add(req.JobID, spanSettle, "", start, end)
		ph.mu.Lock()
		defer ph.mu.Unlock()
		ph.attempted++
		if err != nil {
			ph.failed++
			ph.errs.note("settle: " + err.Error())
			return
		}
		ph.observe(end, float64(end.Sub(start))/1e6)
		ph.rtt.addSince(start, end, time.Millisecond)
		if again {
			ph.redelivered++
			led.mu.Lock()
			led.redelivered++
			led.mu.Unlock()
			return
		}
		ph.completed++
		ph.m.done.Add(1)
		s.last = &req
		led.add(req.JobID, req.Price)
	})
	ph.end(from, lg.snapshot)
}

func runSettleFleet(cfg *runCfg) (*workloadResult, error) {
	const name = wSettleFleet
	users := userNames(fleetUsers)
	// The eight daemons boot and register but stay idle: the bench sends
	// their settlements for them, so no auction and no job runs.
	gs := gridSpec{clusters: fleet(fleetStreams, tripPE, false), users: users, sessions: 1, durable: true}
	var streams []*settleStream
	gen := func() {
		streams = streams[:0]
		for i, cl := range gs.clusters {
			streams = append(streams, &settleStream{
				server: cl.Spec.Name,
				rng:    rand.New(rand.NewSource(cfg.seed*1000 + int64(i))),
				pool:   &protocol.Pool{},
			})
		}
	}
	lg, readyS, err := setupLive(cfg, gs, gen)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, s := range streams {
			s.pool.Close()
		}
	}()
	res := newResult(cfg, name)
	led := newLedger()
	var log *spanLog
	if cfg.trace {
		log = newSpanLog()
	}

	warmStart := time.Now()
	settleWindow(lg, streams, users, led, warmup, &settlePhase{})
	warmS := time.Since(warmStart).Seconds()
	phases := map[bool]*settlePhase{false: {}, true: {log: log}}
	for _, traced := range cfg.plan() {
		settleWindow(lg, streams, users, led, cfg.windowLen(), phases[traced])
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
		"settle_lag_p50_ms":   ph.rtt.pct(50),
		"settle_lag_p90_ms":   ph.rtt.pct(90),
		"cpu_ms_per_job":      ph.cpuMsPerJob(jobs),
		"alloc_kb_per_job":    ratio(ph.d.allocKB, jobs),
		"retained_kb_per_job": ratio(ph.d.retainedKB, jobs),
	})
	res.Samples = map[string]int{"settle_lag": len(ph.rtt)}
	res.noteErrors(ph.errs)

	if cfg.trace {
		tph := phases[true]
		lv := newLayerValues()
		lv["client.inflight_max"] = fleetStreams
		all := sumDeltas(ph.d, tph.d)
		lv.fromScrape(all, float64(ph.completed+tph.completed))
		lv["grid.tracing_overhead_pct"] = overheadPct(ph.rtt.pct(50), tph.rtt.pct(50))
		res.finishTraced(cfg, lv, lg, led, log)
		res.noteErrors(tph.errs)
		res.Attempted += tph.attempted
		res.Failed += tph.failed
	}

	res.addChecks(lg.verifyBooks(led)...)
	lg.close()
	res.addChecks(lg.verifyRecovery(led, cfg.dir))
	closeCentralDBs(lg)
	return res, nil
}
