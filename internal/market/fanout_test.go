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
	"faucets/internal/health"
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
		fleet.delivered.Wait() // every StartBid has answered before the fleet goes
	})
}

// TestSolicitParallelMatchesSerial: whatever the collector is asked to
// do on top — per-bid deadline, breaker gate, both — and
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
		{"gate+timeout", SolicitOpts{Gate: gate, Timeout: time.Second}, 6},
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
		opts := SolicitOpts{Concurrency: k, Timeout: time.Second} // Timeout keeps k = 1 off the inline walk
		servers, fleet := asStarters(blocking)
		got := SolicitWith(0, servers, contract(), LeastCost{}, opts)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("concurrency %d diverged from the serial walk:\n got %+v\nwant %+v", k, got, want)
		}
		fleet.delivered.Wait()
		if fleet.peak > k || fleet.started != len(blocking) {
			t.Fatalf("concurrency %d: %d attempts outstanding at once over %d launches, want ≤ %d over %d",
				k, fleet.peak, fleet.started, k, len(blocking))
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

// keeper is a BidStarter that answers at once, on the launcher's
// goroutine, except that it keeps the sink of its first hold StartBids
// and never answers them: the test delivers through them by hand, after
// the round that launched them has returned. onStart, if set, runs at
// the top of every StartBid.
type keeper struct {
	*fakeServer
	hold    int
	kept    []BidSink
	onStart func()
}

func (k *keeper) StartBid(now float64, c *qos.Contract, sink BidSink) {
	if k.onStart != nil {
		k.onStart()
	}
	if len(k.kept) < k.hold {
		k.kept = append(k.kept, sink)
		return
	}
	sink.DeliverBid(k.RequestBid(now, c))
}

func keepers(ss ...*fakeServer) []ServerPort {
	out := make([]ServerPort, len(ss))
	for i, s := range ss {
		out[i] = &keeper{fakeServer: s}
	}
	return out
}

// TestLateDeliveryNeverReachesTheNextRound: a port that still holds a
// round's sink — an attempt its deadline forfeited — delivers after
// Solicit returned, while the next round runs on the same goroutine.
// That round must rank exactly as the serial walk does: a round is
// recycled only when no port or timer can still reach it. The late
// answer is delivered from the next round's last StartBid, the moment a
// recycled round would have handed the same attempt out again.
func TestLateDeliveryNeverReachesTheNextRound(t *testing.T) {
	ghost := bidding.Bid{Server: "ghost", Price: 0.5, EstCompletion: 1}
	t.Run("forfeited-deadline", func(t *testing.T) {
		for round := 0; round < 20; round++ {
			first := keepers(srv("a", 10, 5), srv("b", 20, 5), srv("x", 1, 1))
			x := first[2].(*keeper)
			x.hold = 1
			if bids := SolicitWith(0, first, contract(), LeastCost{}, SolicitOpts{Timeout: 10 * time.Millisecond}); len(bids) != 2 {
				t.Fatalf("first round bids = %+v, want a and b with x forfeited", bids)
			}
			if len(x.kept) != 1 {
				t.Fatalf("x kept %d sinks, want 1", len(x.kept))
			}
			second := keepers(srv("p", 30, 5), srv("q", 20, 5), srv("r", 10, 5))
			want := SolicitWith(0, second, contract(), LeastCost{}, SolicitOpts{Concurrency: 1})
			second[2].(*keeper).onStart = func() { x.kept[0].DeliverBid(ghost, true) }
			if got := SolicitWith(0, second, contract(), LeastCost{}, SolicitOpts{}); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d: the next round diverged from the serial walk:\n got %+v\nwant %+v", round, got, want)
			}
		}
	})
}

// TestRecycledRoundsMatchSerialUnderStress: eight goroutines each run 500
// rounds over their own fleet of in-memory BidStarters answering from
// other goroutines in shuffled order, one of them a straggler, under a
// random concurrency and per-bid deadline (long enough never to fire)
// per round. Every round must rank as the serial walk does; -race checks
// that no recycled round is touched by its last user.
func TestRecycledRoundsMatchSerialUnderStress(t *testing.T) {
	rounds := 500
	if testing.Short() {
		rounds = 50
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			blocking := make([]ServerPort, 4+rng.Intn(9))
			for i := range blocking {
				s := srv(fmt.Sprintf("g%d-%02d", g, i), float64(1+rng.Intn(4)), float64(1+rng.Intn(3)))
				s.declines = rng.Intn(6) == 0
				blocking[i] = s
			}
			want := SolicitWith(0, blocking, contract(), LeastCost{}, SolicitOpts{Concurrency: 1})
			servers, fleet := asStarters(blocking)
			servers[rng.Intn(len(servers))].(*starter).late = time.Millisecond
			var dst []bidding.Bid
			for r := 0; r < rounds; r++ {
				opts := SolicitOpts{Concurrency: rng.Intn(len(servers) + 1)}
				if rng.Intn(2) == 0 {
					opts.Timeout = time.Minute
				}
				if opts.Concurrency == 1 && opts.Timeout == 0 {
					opts.Concurrency = 0 // keep the round in the collector
				}
				dst = FirstPrice{}.Solicit(dst, 0, servers, contract(), LeastCost{}, opts)
				if !reflect.DeepEqual(dst, want) {
					t.Errorf("goroutine %d round %d, opts %+v diverged from the serial walk:\n got %+v\nwant %+v", g, r, opts, dst, want)
					return
				}
			}
			fleet.delivered.Wait()
		}(g)
	}
	wg.Wait()
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

// TestSolicitAllDecline: a concurrent round in which every server
// declines resolves with no bids, with and without a per-bid deadline.
func TestSolicitAllDecline(t *testing.T) {
	servers := []ServerPort{
		&fakeServer{name: "x", declines: true},
		&fakeServer{name: "y", declines: true},
	}
	for _, opts := range []SolicitOpts{{}, {Timeout: time.Second}} {
		if bids := SolicitWith(0, servers, contract(), LeastCost{}, opts); len(bids) != 0 {
			t.Fatalf("opts %+v: bids = %+v, want none", opts, bids)
		}
	}
}

// breakersCase is a 13-daemon fan-out where every circuit breaker is
// CLOSED, so the breaker gate is pure bookkeeping on the all-healthy
// path. The ports answer in memory and start no bid of their own, so the
// round parks a goroutine per bid.
func breakersCase(tb testing.TB) func() {
	set := health.NewSet(health.Options{})
	servers := make([]ServerPort, 13)
	for i := range servers {
		servers[i] = srv(fmt.Sprintf("bench-%02d", i), 0.001*float64(i+1), 1)
		set.Record(servers[i].ServerName(), time.Millisecond, nil) // history, CLOSED
	}
	opts := SolicitOpts{
		Concurrency: 16,
		Gate:        func(s ServerPort) bool { return set.Healthy(s.ServerName()) },
	}
	c := contract()
	if bids := SolicitWith(0, servers, c, LeastCost{}, opts); len(bids) != 13 {
		tb.Fatalf("bids=%d, want 13 with every breaker closed", len(bids))
	}
	return func() { SolicitWith(0, servers, c, LeastCost{}, opts) }
}

// BenchmarkSolicitWithBreakers times breakersCase: an OPEN breaker makes
// auctions cheaper, so the cost to watch is the gate's tax on the
// all-healthy common case. TestSolicitWithBreakersAllocs pins it at ≤ 14
// allocs/op.
func BenchmarkSolicitWithBreakers(b *testing.B) {
	round := breakersCase(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}
