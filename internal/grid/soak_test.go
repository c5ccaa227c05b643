package grid

import (
	"fmt"
	"os"
	"slices"
	"strconv"
	"testing"
	"time"

	"faucets/internal/chaos"
	"faucets/internal/client"
	"faucets/internal/health"
	"faucets/internal/market"
	"faucets/internal/qos"
)

// soakRounds returns the measured auction count per phase; the CI
// chaos-soak job raises it via FAUCETS_SOAK_ROUNDS for a longer run. The
// default keeps each measured phase at or above ~100 ms of wall time (an
// auction is a few hundred microseconds unraced), so one scheduling
// hiccup is not a third of the sample.
func soakRounds() int {
	if v := os.Getenv("FAUCETS_SOAK_ROUNDS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return 300
}

// soakPhase runs the measured auctions of one phase and returns each
// one's wall time, sorted, plus the phase total.
func soakPhase(t *testing.T, cl *client.Client, rounds int) ([]time.Duration, time.Duration) {
	t.Helper()
	each := make([]time.Duration, rounds)
	start := time.Now()
	for i := range each {
		one := time.Now()
		soakAuction(t, cl)
		each[i] = time.Since(one)
	}
	total := time.Since(start)
	slices.Sort(each)
	return each, total
}

// soakClusters builds a ten-cluster fleet of identical healthy daemons.
func soakClusters() []ClusterSpec {
	out := make([]ClusterSpec, 10)
	for i := range out {
		out[i] = ClusterSpec{
			Spec: spec(fmt.Sprintf("soak-%02d", i), 64, 0.010+0.001*float64(i)),
			Apps: []string{"synth"},
		}
	}
	return out
}

// soakAuction runs one full auction — place and start — failing the test
// on any error: a sick fleet must degrade throughput, never lose jobs.
func soakAuction(t *testing.T, cl *client.Client) {
	t.Helper()
	c := &qos.Contract{App: "synth", MinPE: 2, MaxPE: 8, Work: 50}
	p, err := cl.Place(c, market.LeastCost{})
	if err != nil {
		t.Fatalf("place: %v", err)
	}
	if err := cl.Start(p); err != nil {
		t.Fatalf("start: %v", err)
	}
}

// waitSettled blocks until the grid's Central Server holds exactly n
// contract-history rows — one per job, so n proves both completeness
// (every job settled) and exactly-once (no duplicate row survived the
// outbox's redelivery loop).
func waitSettled(t *testing.T, g *Grid, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		got := g.Central.DB.HistoryLen()
		if got == n {
			return
		}
		if got > n {
			t.Fatalf("history has %d rows for %d jobs: a settlement was applied twice", got, n)
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d jobs settled", got, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosSoakSickMinority: a fleet where 20% of the daemons are gray
// failures — one slow-loris that trickles every reply byte by byte, one
// stalled daemon that accepts connections and never answers — must keep
// auction throughput at ≥70% of an all-healthy baseline once the
// client's circuit breakers learn who is sick, must settle every job
// exactly once, and must forfeit OPEN-breaker daemons instantly rather
// than paying a per-bid timeout each auction.
func TestChaosSoakSickMinority(t *testing.T) {
	rounds := soakRounds()
	opts := Options{
		Users:            map[string]string{"alice": "pw"},
		RPCTimeout:       150 * time.Millisecond,
		BidTimeout:       50 * time.Millisecond,
		SettleRetry:      25 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Minute, // stays open through the measured phase
		HedgeQuantile:    0.9,
		MaxInflight:      256,
	}

	// Phase 1: all-healthy baseline.
	healthy, err := Start(soakClusters(), opts)
	if err != nil {
		t.Fatal(err)
	}
	hcl, err := healthy.Login("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // warm pooled connections
		soakAuction(t, hcl)
	}
	healthyEach, healthyElapsed := soakPhase(t, hcl, rounds)
	waitSettled(t, healthy, rounds+3)
	hcl.Close()
	healthy.Close()

	// Phase 2: two of ten daemons are sick. The trickler dribbles each
	// reply byte at 5ms; the staller swallows writes and never replies.
	clusters := soakClusters()
	last := len(clusters) - 1
	clusters[last].Chaos = chaos.New(chaos.Config{Seed: 7, TrickleProb: 1, TrickleDelay: 5 * time.Millisecond})
	clusters[last-1].Chaos = chaos.New(chaos.Config{Seed: 3, StallProb: 1})
	g, err := Start(clusters, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	cl, err := g.Login("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	sickAddrs := []string{g.daemonAddrs[last-1], g.daemonAddrs[last]}
	open := func() bool {
		for _, addr := range sickAddrs {
			if cl.Breakers.State(addr) != health.Open {
				return false
			}
		}
		return true
	}
	warmup := 0
	for ; !open() && warmup < 30; warmup++ {
		soakAuction(t, cl)
	}
	if !open() {
		for _, addr := range sickAddrs {
			t.Logf("breaker %s: state=%v score=%.1f", addr, cl.Breakers.State(addr), cl.Breakers.Score(addr))
		}
		t.Fatalf("breakers never opened after %d warmup auctions", warmup)
	}

	sickEach, sickElapsed := soakPhase(t, cl, rounds)
	waitSettled(t, g, warmup+rounds)

	// Instant forfeit: with the breakers OPEN, sick daemons are skipped
	// before any dial, so the mean measured auction must come in well
	// under one per-bid timeout — a fleet paying 50ms per sick daemon
	// per auction cannot.
	meanAuction := sickElapsed / time.Duration(rounds)
	if meanAuction >= opts.BidTimeout {
		t.Fatalf("mean auction %v >= per-bid timeout %v: OPEN breakers are not forfeiting instantly", meanAuction, opts.BidTimeout)
	}
	skips := g.Central.Metrics.Counter("faucets_auction_breaker_skips_total", "")
	if skips.Value() == 0 {
		t.Fatal("breaker-skip counter never incremented during the measured phase")
	}

	// Report only: an event-driven run loop costs about two wakeups a
	// job, so a fleet total far above that is a loop that spins.
	var wakeups uint64
	for _, d := range g.Daemons {
		wakeups += d.Metrics().Counter("faucets_daemon_runloop_wakeups_total", "").Value()
	}

	// Sustained throughput: ≥70% of the healthy baseline, phase against
	// phase by the median auction. The sick phase starts the instant the
	// breakers open, while the warm-up's abandoned calls to the trickler
	// and the staller are still draining; a total would charge those few
	// stragglers, and any one scheduling hiccup, to the steady state the
	// 70% line is about.
	healthyP50, sickP50 := healthyEach[rounds/2], sickEach[rounds/2]
	ratio := float64(healthyP50) / float64(sickP50)
	t.Logf("soak: rounds=%d healthy=%v (p50 %v) sick=%v (p50 %v) throughput-ratio=%.2f warmup=%d skips=%d jobs=%d runloop-wakeups=%d",
		rounds, healthyElapsed, healthyP50, sickElapsed, sickP50, ratio, warmup, skips.Value(), warmup+rounds, wakeups)
	if ratio < 0.7 {
		t.Logf("healthy auctions, sorted: %v", healthyEach)
		t.Logf("sick auctions, sorted: %v", sickEach)
		t.Fatalf("sick-fleet throughput is %.0f%% of healthy baseline (median auction healthy %v, sick %v), want >= 70%%",
			ratio*100, healthyP50, sickP50)
	}
}
