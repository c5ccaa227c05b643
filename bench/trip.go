package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"faucets/internal/market"
	"faucets/internal/qos"
	"faucets/internal/telemetry"
)

// tripInput is one generated job: when it is due, which session submits
// it, and its QoS contract. The grid only ever sees these.
type tripInput struct {
	offset   time.Duration
	session  int
	contract *qos.Contract
}

// genTrips draws n jobs due over span. Work 1–20 CPU-seconds on 4–16
// processors at timescale 1000 runs for at most 5 ms: one or two daemon
// ticks, so the run-loop tick is visible but jobs never pile up.
func genTrips(rng *rand.Rand, n int, span time.Duration, sessions int) []tripInput {
	offs := poissonOffsets(rng, n, span)
	out := make([]tripInput, n)
	for i := range out {
		minPE := 1 + rng.Intn(4)
		out[i] = tripInput{
			offset:  offs[i],
			session: rng.Intn(sessions),
			contract: &qos.Contract{
				App:   benchApp,
				MinPE: minPE,
				MaxPE: 4 + rng.Intn(13),
				Work:  1 + 19*rng.Float64(),
			},
		}
	}
	return out
}

// tripJob is one job in flight, with the instants the bench stamped
// itself around the client calls.
type tripJob struct {
	id                               string
	price                            float64
	attempts                         int
	due, placeStart, placed, started time.Time
}

// tripPhase accumulates the windows of one kind: warm-up, untraced or
// traced.
type tripPhase struct {
	windowAcc
	log *spanLog // nil unless these windows are traced
	led *ledger

	mu        sync.Mutex
	attempted int
	completed int
	failed    int
	overLimit int
	attempts  int // commit attempts, summed
	errs      errCounts
	last      time.Time // latest settle event of the running window
	busy      float64   // seconds from each window's start to its last settle, summed
	outboxMax int

	ttc, trip, settleLag          samples // ms
	place, start, list, sol, comm samples // us
	runWait, lag                  samples // ms

	inflight    atomic.Int64
	inflightMax atomic.Int64
}

func (ph *tripPhase) enter() {
	n := ph.inflight.Add(1)
	for {
		m := ph.inflightMax.Load()
		if n <= m || ph.inflightMax.CompareAndSwap(m, n) {
			return
		}
	}
}

func (ph *tripPhase) fail(reason string) {
	ph.inflight.Add(-1)
	ph.mu.Lock()
	ph.failed++
	ph.errs.note(reason)
	ph.mu.Unlock()
}

// tripStamps are the instants read back from the grid's tracer.
type tripStamps struct{ submit, bid, finish, settle time.Time }

func readStamps(evs []telemetry.SpanEvent) tripStamps {
	var st tripStamps
	for _, e := range evs {
		switch e.Name {
		case telemetry.SpanSubmit:
			st.submit = e.Wall
		case telemetry.SpanBid:
			st.bid = e.Wall
		case telemetry.SpanFinish:
			st.finish = e.Wall
		case telemetry.SpanSettle:
			st.settle = e.Wall
		}
	}
	return st
}

// complete books one settled trip.
func (ph *tripPhase) complete(j *tripJob, st tripStamps) {
	ph.inflight.Add(-1)
	ph.m.done.Add(1)
	ph.led.add(j.id, j.price)
	// A very short job can finish before its Start acknowledgement is back.
	ran := j.started
	if st.finish.Before(ran) {
		ran = st.finish
	}

	ph.mu.Lock()
	ph.completed++
	ph.attempts += j.attempts
	if st.settle.After(ph.last) {
		ph.last = st.settle
	}
	tripMs := float64(st.settle.Sub(j.due)) / 1e6
	if tripMs > latencyLimitMs {
		ph.overLimit++
	}
	ph.observe(st.settle, tripMs)
	ph.ttc.addSince(j.due, j.placed, time.Millisecond)
	ph.trip.add(tripMs)
	ph.settleLag.addSince(st.finish, st.settle, time.Millisecond)
	ph.place.addSince(j.placeStart, j.placed, time.Microsecond)
	ph.start.addSince(j.placed, j.started, time.Microsecond)
	ph.runWait.addSince(ran, st.finish, time.Millisecond)
	ph.lag.addSince(j.due, j.placeStart, time.Millisecond)
	ph.list.addSince(j.placeStart, st.submit, time.Microsecond)
	ph.sol.addSince(st.submit, st.bid, time.Microsecond)
	ph.comm.addSince(st.bid, j.placed, time.Microsecond)
	ph.mu.Unlock()

	if ph.log != nil {
		ph.log.add(j.id, spanTrip, "", j.due, st.settle)
		recordPlaceSpans(ph.log, j.id, spanTrip, j.placeStart, st.submit, st.bid, j.placed)
		ph.log.add(j.id, spanStart, spanTrip, j.placed, j.started)
		ph.log.add(j.id, spanRunWait, spanTrip, ran, st.finish)
		ph.log.add(j.id, spanSettle, spanTrip, st.finish, st.settle)
	}
}

// recordPlaceSpans records client.place and its three children. The
// boundaries inside Place are the tracer's own submit and bid events:
// the client records submit after the directory read returns and bid
// after the last bid is in.
func recordPlaceSpans(log *spanLog, job, parent string, placeStart, submit, bid, placed time.Time) {
	log.add(job, spanPlace, parent, placeStart, placed)
	log.add(job, spanListServers, spanPlace, placeStart, submit)
	log.add(job, spanSolicit, spanPlace, submit, bid)
	log.add(job, spanCommit, spanPlace, bid, placed)
}

// harvester reads finish and settle instants for started jobs out of the
// grid's tracer, soon after they happen: the tracer keeps only the last
// 4096 jobs, and WaitFinished's 5 ms status poll is too coarse to time a
// 5 ms job. The events carry their own wall stamps, so how often the
// harvester looks does not change what it measures.
type harvester struct {
	lg   *liveGrid
	mu   sync.Mutex
	jobs []*watched
	stop chan struct{}
	done chan struct{}
}

type watched struct {
	job  *tripJob
	ph   *tripPhase
	next time.Time
}

func startHarvester(lg *liveGrid) *harvester {
	h := &harvester{lg: lg, stop: make(chan struct{}), done: make(chan struct{})}
	go h.loop()
	return h
}

func (h *harvester) watch(j *tripJob, ph *tripPhase) {
	// A job needs at least one daemon tick; looking sooner finds nothing.
	w := &watched{job: j, ph: ph, next: j.started.Add(2 * time.Millisecond)}
	h.mu.Lock()
	h.jobs = append(h.jobs, w)
	h.mu.Unlock()
}

func (h *harvester) pending() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.jobs)
}

func (h *harvester) close() {
	close(h.stop)
	<-h.done
}

func (h *harvester) loop() {
	defer close(h.done)
	for tick := 0; ; tick++ {
		select {
		case <-h.stop:
			return
		default:
		}
		time.Sleep(time.Millisecond)
		now := time.Now()
		h.mu.Lock()
		jobs := h.jobs
		h.jobs = nil
		h.mu.Unlock()
		var keep []*watched
		for _, w := range jobs {
			if now.Before(w.next) {
				keep = append(keep, w)
				continue
			}
			st := readStamps(h.lg.g.Tracer.Events(w.job.id))
			switch {
			case !st.settle.IsZero() && !st.finish.IsZero():
				w.ph.complete(w.job, st)
			case !st.finish.IsZero() && now.Sub(st.finish) > settleWaitS*time.Second:
				w.ph.fail("no settle event within 5 s of finishing")
			case st.finish.IsZero() && now.Sub(w.job.started) > 2*settleWaitS*time.Second:
				w.ph.fail("no finish event within 10 s of starting")
			default:
				w.next = now.Add(time.Millisecond)
				keep = append(keep, w)
			}
		}
		h.mu.Lock()
		h.jobs = append(keep, h.jobs...)
		h.mu.Unlock()
		if tick%10 == 0 && len(jobs) > 0 {
			depth := h.lg.outboxTotal()
			ph := jobs[0].ph
			ph.mu.Lock()
			ph.outboxMax = max(ph.outboxMax, depth)
			ph.mu.Unlock()
		}
	}
}

// awaitIdle waits until no started job is still being watched.
func (h *harvester) awaitIdle() {
	for h.pending() > 0 {
		time.Sleep(time.Millisecond)
	}
}

// tripRun drives open-loop trips against one live grid.
type tripRun struct {
	lg   *liveGrid
	harv *harvester
	led  *ledger
}

func (t *tripRun) newPhase(log *spanLog) *tripPhase { return &tripPhase{log: log, led: t.led} }

// window runs one open-loop window over the inputs, accumulating into ph.
// It returns once every job it launched has settled or failed and the
// books have caught up.
func (t *tripRun) window(inputs []tripInput, ph *tripPhase) {
	offsets := make([]time.Duration, len(inputs))
	for i, in := range inputs {
		offsets[i] = in.offset
	}
	ph.mu.Lock()
	ph.attempted += len(inputs)
	ph.last = time.Time{}
	ph.mu.Unlock()
	from := ph.begin(t.lg.snapshot)
	start := time.Now()
	openLoop(start, offsets, func(i int, due time.Time) {
		t.oneTrip(&inputs[i], due, ph)
	}).Wait()
	t.harv.awaitIdle()
	t.lg.drain(t.led, 10*time.Second)
	ph.end(from, t.lg.snapshot)
	ph.mu.Lock()
	if ph.last.After(start) {
		ph.busy += ph.last.Sub(start).Seconds()
	}
	ph.mu.Unlock()
}

// oneTrip is one job's goroutine: Place, then Start, then hand the job to
// the harvester, which sees it through finish and settle.
func (t *tripRun) oneTrip(in *tripInput, due time.Time, ph *tripPhase) {
	ph.enter()
	c := t.lg.sessions[in.session]
	j := &tripJob{due: due, placeStart: time.Now()}
	p, err := c.Place(in.contract, market.LeastCost{})
	j.placed = time.Now()
	if err != nil {
		ph.fail("place: " + err.Error())
		return
	}
	j.id, j.price, j.attempts = p.JobID, p.Bid.Price, p.Attempts
	err = c.Start(p)
	j.started = time.Now()
	if err != nil {
		ph.fail("start: " + err.Error())
		return
	}
	t.harv.watch(j, ph)
}

func runTripSteady(cfg *runCfg) (*workloadResult, error) {
	return runTrips(cfg, wTripSteady, gridSpec{
		clusters: fleet(tripDaemons, tripPE, false),
		users:    userNames(2),
		sessions: 2,
		durable:  true,
	})
}

func runTripSharded(cfg *runCfg) (*workloadResult, error) {
	return runTrips(cfg, wTripSharded, gridSpec{
		clusters: fleet(tripDaemons, tripPE, false),
		// Enough accounts that the ring homes at least one on each shard.
		users:    userNames(32),
		sessions: shardCount,
		shards:   shardCount,
		durable:  true,
	})
}

func runTrips(cfg *runCfg, name string, gs gridSpec) (*workloadResult, error) {
	var warm, inputs []tripInput
	gen := func() {
		rng := rand.New(rand.NewSource(cfg.seed))
		warm = genTrips(rng, int(tripRate*warmup.Seconds()), warmup, gs.sessions)
		inputs = genTrips(rng, int(tripRate*cfg.windowLen().Seconds()), cfg.windowLen(), gs.sessions)
	}
	lg, readyS, err := setupLive(cfg, gs, gen)
	if err != nil {
		return nil, err
	}
	if len(lg.sessions) != gs.sessions {
		lg.close()
		return nil, fmt.Errorf("%s: %d sessions opened, want %d", name, len(lg.sessions), gs.sessions)
	}
	t := &tripRun{lg: lg, harv: startHarvester(lg), led: newLedger()}
	res := newResult(cfg, name)

	var log *spanLog
	if cfg.trace {
		log = newSpanLog()
	}
	warmStart := time.Now()
	t.window(warm, t.newPhase(nil))
	warmS := time.Since(warmStart).Seconds()
	// Every window replays the same generated jobs.
	phases := map[bool]*tripPhase{false: t.newPhase(nil), true: t.newPhase(log)}
	for _, traced := range cfg.plan() {
		t.window(inputs, phases[traced])
	}
	ph := phases[false]
	res.Attempted, res.Failed = ph.attempted, ph.failed
	res.setEndToEnd(name, tripEndToEnd(ph, readyS, warmS))
	res.Samples = map[string]int{"ttc": len(ph.ttc), "trip": len(ph.trip), "settle_lag": len(ph.settleLag)}
	res.noteErrors(ph.errs)

	if cfg.trace {
		tph := phases[true]
		lv := newLayerValues()
		lv.fromTrips(tph)
		// Counts per job are the same traced or not (spans are recorded on
		// the bench's side), so they are taken over all four windows.
		all := sumDeltas(ph.d, tph.d)
		lv.fromScrape(all, float64(ph.completed+tph.completed))
		lv["grid.tracing_overhead_pct"] = overheadPct(ph.trip.pct(50), tph.trip.pct(50))
		res.finishTraced(cfg, lv, lg, t.led, log)
		res.noteErrors(tph.errs)
		res.Attempted += tph.attempted
		res.Failed += tph.failed
	}

	t.harv.close()
	res.addChecks(lg.verifyBooks(t.led)...)
	lg.close()
	res.addChecks(lg.verifyRecovery(t.led, cfg.dir))
	closeCentralDBs(lg)
	return res, nil
}

// tripEndToEnd turns the untraced windows into the end-to-end metrics.
func tripEndToEnd(ph *tripPhase, readyS, warmS float64) map[string]float64 {
	jobs := float64(ph.completed)
	return map[string]float64{
		"setup_s": readyS + warmS,
		"ready_s": readyS,
		// Open loop: the offered rate is fixed, so completions are counted
		// over the time from each window's first due instant to its last
		// settle event. A grid that falls behind completes fewer per second.
		"jobs_per_s":        ratio(jobs, ph.busy),
		"fail_ratio":        ratio(float64(ph.failed), float64(ph.attempted)),
		"over_limit_ratio":  ratio(float64(ph.overLimit), float64(ph.attempted)),
		"latency_p50_ms":    ph.latencyMs(50),
		"latency_p90_ms":    ph.latencyMs(90),
		"ttc_p50_ms":        ph.ttc.pct(50),
		"ttc_p90_ms":        ph.ttc.pct(90),
		"trip_p50_ms":       ph.trip.pct(50),
		"trip_p90_ms":       ph.trip.pct(90),
		"settle_lag_p50_ms": ph.settleLag.pct(50),
		"settle_lag_p90_ms": ph.settleLag.pct(90),
		// Whole window: per slice, Poisson arrivals make completions and the
		// grid's idle CPU vary apart, and picking a good slice picks that.
		"cpu_ms_per_job":      ratio(ph.d.cpuMs, jobs),
		"alloc_kb_per_job":    ratio(ph.d.allocKB, jobs),
		"retained_kb_per_job": ratio(ph.d.retainedKB, jobs),
	}
}
