package market

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
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

// starter turns a blocking port into a BidStarter the way a wire port is
// one: StartBid returns at once and the answer is delivered later, from
// another goroutine, after a random short delay — so a fleet of them
// completes in shuffled order. It counts what the collector has
// outstanding on it.
type starter struct {
	ServerPort
	fleet *starterFleet
	late  time.Duration // extra delay before delivering (a straggler)
}

// starterFleet is the state a fleet of starters shares.
type starterFleet struct {
	mu          sync.Mutex
	rng         *rand.Rand
	outstanding int
	peak        int // most attempts ever outstanding at once
	started     int
	delivered   sync.WaitGroup // every StartBid's deliver has run
}

func (s *starter) StartBid(now float64, c *qos.Contract, sink BidSink) {
	f := s.fleet
	f.mu.Lock()
	f.started++
	f.outstanding++
	f.peak = max(f.peak, f.outstanding)
	delay := s.late + time.Duration(f.rng.Intn(400))*time.Microsecond
	f.mu.Unlock()
	f.delivered.Add(1)
	go func() {
		defer f.delivered.Done()
		time.Sleep(delay)
		b, ok := s.RequestBid(now, c)
		f.mu.Lock()
		f.outstanding--
		f.mu.Unlock()
		sink.DeliverBid(b, ok)
	}()
}

// asStarters wraps every port of a fleet as a BidStarter.
func asStarters(servers []ServerPort) ([]ServerPort, *starterFleet) {
	f := &starterFleet{rng: rand.New(rand.NewSource(int64(len(servers))))}
	out := make([]ServerPort, len(servers))
	for i, s := range servers {
		out[i] = &starter{ServerPort: s, fleet: f}
	}
	return out, f
}

// bothKinds runs a matches-serial table over the fleet as it is —
// blocking ports, one goroutine per attempt — and again over the same
// fleet as BidStarters, the completion path wire ports take.
func bothKinds(t *testing.T, servers []ServerPort, run func(t *testing.T, servers []ServerPort)) {
	t.Run("blocking", func(t *testing.T) { run(t, servers) })
	t.Run("startbid", func(t *testing.T) {
		wrapped, fleet := asStarters(servers)
		run(t, wrapped)
		fleet.delivered.Wait() // abandoned hedges may answer after the last round: nothing may break
	})
}

// TestSolicitParallelMatchesSerial: whatever the collector is asked to
// do on top — per-bid deadline, breaker gate, hedging, all three — and
// at every concurrency level, it must return exactly the ranking of the
// Concurrency 1 walk over the same (gated) fleet.
func TestSolicitParallelMatchesSerial(t *testing.T) {
	c, crit := contract(), LeastCost{}
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
	bothKinds(t, mixedFleet(), func(t *testing.T, servers []ServerPort) {
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
	})
}

// TestSolicitStartBidBoundsOutstanding: Concurrency k is a bound on
// attempts outstanding, and it holds when launching costs no goroutine:
// the launcher starts the next server only as a completion frees a slot.
func TestSolicitStartBidBoundsOutstanding(t *testing.T) {
	blocking := make([]ServerPort, 24)
	for i := range blocking {
		blocking[i] = srv(fmt.Sprintf("s%02d", i), float64(1+i%5), 1)
	}
	want := SolicitWith(0, blocking, contract(), LeastCost{}, SolicitOpts{Concurrency: 1})
	for _, k := range []int{1, 3, 16} {
		for _, opts := range []SolicitOpts{
			{Concurrency: k, Timeout: time.Second}, // Timeout keeps k = 1 off the inline walk
			{Concurrency: k, Timeout: time.Second, HedgeQuantile: 0.5},
		} {
			servers, fleet := asStarters(blocking)
			got := SolicitWith(0, servers, contract(), LeastCost{}, opts)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("concurrency %d diverged from the serial walk:\n got %+v\nwant %+v", k, got, want)
			}
			fleet.delivered.Wait()
			if fleet.peak > k || fleet.started < len(blocking) {
				t.Fatalf("opts %+v: %d attempts outstanding at once over %d launches, want ≤ %d over ≥ %d",
					opts, fleet.peak, fleet.started, k, len(blocking))
			}
		}
	}
}

// TestSolicitStartBidLateDeliveryChangesNothing: a BidStarter that
// answers after the per-bid deadline has already forfeited — its late
// deliver, arriving after SolicitWith returned, finds the attempt spent
// and touches neither the ranking handed out nor anything else.
func TestSolicitStartBidLateDeliveryChangesNothing(t *testing.T) {
	servers, fleet := asStarters(ports(srv("a", 10, 5), srv("b", 20, 5), srv("sloth", 1, 1)))
	servers[2].(*starter).late = 300 * time.Millisecond // best price — would win if heard
	start := time.Now()
	bids := SolicitWith(0, servers, contract(), LeastCost{}, SolicitOpts{Timeout: 100 * time.Millisecond})
	if elapsed := time.Since(start); elapsed > 250*time.Millisecond {
		t.Fatalf("solicit took %v, the straggler stalled it", elapsed)
	}
	snapshot := append([]bidding.Bid(nil), bids...)
	fleet.delivered.Wait() // the late deliver has now run
	if len(bids) != 2 || bids[0].Server != "a" || bids[1].Server != "b" || !reflect.DeepEqual(bids, snapshot) {
		t.Fatalf("bids = %+v, want a,b with sloth forfeited and nothing changed by its late answer", bids)
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
// at once — and asks through RequestBid, inline, even when the ports
// could StartBid.
func TestSolicitConcurrencyOneIsSerial(t *testing.T) {
	var inside atomic.Int32
	fleet := make([]ServerPort, 40)
	for i := range fleet {
		s := &serialOnlyServer{t: t, inside: &inside}
		s.fakeServer = *srv(fmt.Sprintf("s%02d", i), float64(40-i), 1)
		fleet[i] = s
	}
	bothKinds(t, fleet, func(t *testing.T, servers []ServerPort) {
		bids := SolicitWith(0, servers, contract(), LeastCost{}, SolicitOpts{Concurrency: 1})
		if len(bids) != len(servers) || bids[0].Server != "s39" {
			t.Fatalf("bids = %d best %q, want %d best s39", len(bids), bids[0].Server, len(servers))
		}
		if st, ok := servers[0].(*starter); ok && st.fleet.started != 0 {
			t.Fatalf("the serial walk launched %d StartBids, want none", st.fleet.started)
		}
	})
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
