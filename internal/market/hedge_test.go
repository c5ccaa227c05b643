package market

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"faucets/internal/bidding"
	"faucets/internal/qos"
)

// slowFirstServer stalls its first RequestBid and answers every later
// one instantly — the shape a hedge rescues: the original attempt is
// stuck, the re-issued one wins.
type slowFirstServer struct {
	fakeServer
	delay time.Duration
	asked atomic.Int32
}

func (s *slowFirstServer) RequestBid(now float64, c *qos.Contract) (bidding.Bid, bool) {
	if s.asked.Add(1) == 1 {
		time.Sleep(s.delay)
	}
	return s.fakeServer.RequestBid(now, c)
}

// TestSolicitHedgedMatchesSerial: with every server healthy, hedging at
// any quantile must produce the Concurrency 1 walk's exact ranking —
// hedging changes when bids arrive, never how they rank.
func TestSolicitHedgedMatchesSerial(t *testing.T) {
	c, crit := contract(), LeastCost{}
	bothKinds(t, mixedFleet(), func(t *testing.T, servers []ServerPort) {
		want := SolicitWith(0, servers, c, crit, SolicitOpts{Concurrency: 1})
		for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99} {
			for _, conc := range []int{0, 2} {
				got := SolicitWith(0, servers, c, crit, SolicitOpts{HedgeQuantile: q, Concurrency: conc})
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("hedge quantile %v, concurrency %d diverged:\n got %+v\nwant %+v", q, conc, got, want)
				}
			}
		}
	})
}

// TestSolicitHedgeRescuesSlowServer: the straggler's first attempt is
// stuck past the per-bid deadline, but the hedge re-issued after the
// quantile answers instantly — the bid is collected, fast, exactly
// once per slot.
func TestSolicitHedgeRescuesSlowServer(t *testing.T) {
	slow := &slowFirstServer{delay: 2 * time.Second}
	slow.fakeServer = *srv("sloth", 1, 1) // best price — must win via the hedge
	servers := append(ports(srv("a", 10, 5), srv("b", 20, 5), srv("c", 30, 5)), slow)

	start := time.Now()
	bids := SolicitWith(0, servers, contract(), LeastCost{},
		SolicitOpts{Timeout: 500 * time.Millisecond, HedgeQuantile: 0.5})
	elapsed := time.Since(start)

	if len(bids) != 4 || bids[0].Server != "sloth" {
		t.Fatalf("bids = %+v, want sloth rescued and ranked first", bids)
	}
	if elapsed > time.Second {
		t.Fatalf("hedged solicit took %v, the straggler stalled it", elapsed)
	}
	if got := slow.asked.Load(); got != 2 {
		t.Fatalf("straggler asked %d times, want 2 (original + hedge)", got)
	}
	// Duplicate-award safety: one slot per server, even with two
	// attempts answering.
	seen := map[string]int{}
	for _, b := range bids {
		seen[b.Server]++
	}
	for name, n := range seen {
		if n != 1 {
			t.Fatalf("server %s holds %d slots", name, n)
		}
	}
}

// TestSolicitGateSkipsWithoutCalling: a gated-out server must not be
// asked at all — the forfeit is instant, not a timeout.
func TestSolicitGateSkipsWithoutCalling(t *testing.T) {
	sick := &slowServer{delay: 2 * time.Second}
	sick.fakeServer = *srv("sick", 1, 1)
	servers := append(ports(srv("a", 10, 5), srv("b", 20, 5)), sick)
	gate := func(s ServerPort) bool { return s.ServerName() != "sick" }

	for _, opts := range []SolicitOpts{
		{Gate: gate},
		{Gate: gate, Timeout: 50 * time.Millisecond},
		{Gate: gate, HedgeQuantile: 0.5},
		{Gate: gate, Concurrency: 1},
	} {
		start := time.Now()
		bids := SolicitWith(0, servers, contract(), LeastCost{}, opts)
		if d := time.Since(start); d > time.Second {
			t.Fatalf("opts %+v: solicit took %v despite gate", opts, d)
		}
		if len(bids) != 2 || bids[0].Server != "a" || bids[1].Server != "b" {
			t.Fatalf("opts %+v: bids = %+v, want a,b", opts, bids)
		}
	}
	if got := sick.asked.Load(); got != 0 {
		t.Fatalf("gated-out server was asked %d times, want 0", got)
	}
}

// TestSolicitHedgeAllDecline: declines resolve slots without hedges
// looping forever.
func TestSolicitHedgeAllDecline(t *testing.T) {
	servers := []ServerPort{
		&fakeServer{name: "x", declines: true},
		&fakeServer{name: "y", declines: true},
	}
	bids := SolicitWith(0, servers, contract(), LeastCost{}, SolicitOpts{HedgeQuantile: 0.5})
	if len(bids) != 0 {
		t.Fatalf("bids = %+v, want none", bids)
	}
}
