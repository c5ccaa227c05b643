package market

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"faucets/internal/bidding"
	"faucets/internal/qos"
)

// slowServer bids after a fixed delay.
type slowServer struct {
	fakeServer
	delay time.Duration
	asked atomic.Int32
}

func (s *slowServer) RequestBid(now float64, c *qos.Contract) (bidding.Bid, bool) {
	s.asked.Add(1)
	time.Sleep(s.delay)
	return s.fakeServer.RequestBid(now, c)
}

// mixedFleet is the fleet the matches-serial tests share: criterion ties
// (broken by server name), a declining server, and "sick" — the best
// price, present so a gate has something to exclude.
func mixedFleet() []ServerPort {
	servers := ports(
		srv("delta", 20, 5), srv("alpha", 10, 9), srv("echo", 10, 9),
		srv("bravo", 10, 9), srv("golf", 30, 1), srv("charlie", 20, 5),
		srv("sick", 1, 1),
	)
	return append(servers, &fakeServer{name: "mute", declines: true})
}

// TestSolicitParallelMatchesSerial: whatever the collector is asked to
// do on top — per-bid deadline, breaker gate, hedging, all three — and
// at every concurrency level, it must return exactly the ranking of the
// Concurrency 1 walk over the same (gated) fleet.
func TestSolicitParallelMatchesSerial(t *testing.T) {
	servers, c, crit := mixedFleet(), contract(), LeastCost{}
	gate := func(s ServerPort) bool { return s.ServerName() != "sick" }
	cases := []struct {
		name string
		opts SolicitOpts
		want int // bids in the reference ranking
	}{
		{"plain", SolicitOpts{}, 7},
		{"timeout", SolicitOpts{Timeout: time.Second}, 7},
		{"gate", SolicitOpts{Gate: gate}, 6},
		{"hedge", SolicitOpts{HedgeQuantile: 0.5}, 7},
		{"gate+hedge+timeout", SolicitOpts{Gate: gate, HedgeQuantile: 0.5, Timeout: time.Second}, 6},
	}
	for _, tc := range cases {
		want := SolicitWith(0, servers, c, crit, SolicitOpts{Concurrency: 1, Gate: tc.opts.Gate})
		if len(want) != tc.want {
			t.Fatalf("%s: serial bids = %d, want %d", tc.name, len(want), tc.want)
		}
		for _, conc := range []int{0, 1, 2, 3, 16, 64} {
			opts := tc.opts
			opts.Concurrency = conc
			if got := SolicitWith(0, servers, c, crit, opts); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, concurrency %d diverged:\n got %+v\nwant %+v", tc.name, conc, got, want)
			}
		}
	}
}

// serialOnlyServer fails the test if two RequestBid calls are ever in
// flight at once — a single-threaded simulation entity.
type serialOnlyServer struct {
	fakeServer
	t      *testing.T
	inside *atomic.Int32 // shared by the whole fleet
}

func (s *serialOnlyServer) RequestBid(now float64, c *qos.Contract) (bidding.Bid, bool) {
	if s.inside.Add(1) != 1 {
		s.t.Error("two RequestBid calls in flight under Concurrency 1")
	}
	time.Sleep(50 * time.Microsecond) // widen the window an overlap would need
	defer s.inside.Add(-1)
	return s.fakeServer.RequestBid(now, c)
}

// TestSolicitConcurrencyOneIsSerial pins the property gridsim relies
// on: SolicitOpts{Concurrency: 1} asks one server at a time, never two
// at once.
func TestSolicitConcurrencyOneIsSerial(t *testing.T) {
	var inside atomic.Int32
	servers := make([]ServerPort, 40)
	for i := range servers {
		s := &serialOnlyServer{t: t, inside: &inside}
		s.fakeServer = *srv(fmt.Sprintf("s%02d", i), float64(40-i), 1)
		servers[i] = s
	}
	bids := SolicitWith(0, servers, contract(), LeastCost{}, SolicitOpts{Concurrency: 1})
	if len(bids) != len(servers) || bids[0].Server != "s39" {
		t.Fatalf("bids = %d best %q, want %d best s39", len(bids), bids[0].Server, len(servers))
	}
}

// TestSolicitTieBreakIsDeterministic: equal bids rank by server name,
// so arrival order (which the parallel path does not control) never
// shows through.
func TestSolicitTieBreakIsDeterministic(t *testing.T) {
	servers := ports(srv("c", 10, 5), srv("a", 10, 5), srv("b", 10, 5))
	bids := solicit(servers, LeastCost{})
	if len(bids) != 3 || bids[0].Server != "a" || bids[1].Server != "b" || bids[2].Server != "c" {
		t.Fatalf("tie-break order wrong: %+v", bids)
	}
}

// TestSolicitTimeoutForfeitsSlowBid: a server that cannot answer within
// the per-bid deadline loses its bid; the rest of the auction is
// unaffected and completes near the deadline, not the straggler's
// response time.
func TestSolicitTimeoutForfeitsSlowBid(t *testing.T) {
	slow := &slowServer{delay: 2 * time.Second}
	slow.fakeServer = *srv("sloth", 1, 1) // best price — would win if heard
	servers := append(ports(srv("a", 10, 5), srv("b", 20, 5)), slow)

	start := time.Now()
	bids := SolicitWith(0, servers, contract(), LeastCost{},
		SolicitOpts{Concurrency: 3, Timeout: 50 * time.Millisecond})
	elapsed := time.Since(start)

	if len(bids) != 2 || bids[0].Server != "a" || bids[1].Server != "b" {
		t.Fatalf("bids = %+v, want a,b with sloth forfeited", bids)
	}
	if slow.asked.Load() != 1 {
		t.Fatalf("slow server asked %d times, want 1", slow.asked.Load())
	}
	if elapsed > time.Second {
		t.Fatalf("solicit took %v, the straggler stalled it", elapsed)
	}
}
