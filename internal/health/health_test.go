package health

import (
	"errors"
	"testing"
	"time"
)

var errBoom = errors.New("boom")

// fakeClock drives breaker time deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestSet(clk *fakeClock, opts Options) *Set {
	opts.Now = clk.now
	return NewSet(opts)
}

func TestBreakerOpensAfterFailures(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	s := newTestSet(clk, Options{Threshold: 3, Cooldown: time.Second})
	const addr = "fd1:9200"
	for i := 0; i < 2; i++ {
		if !s.Allow(addr) {
			t.Fatalf("call %d refused before threshold", i)
		}
		s.Record(addr, 10*time.Millisecond, errBoom)
	}
	if got := s.State(addr); got != Closed {
		t.Fatalf("state after 2 failures = %v, want closed", got)
	}
	s.Record(addr, 10*time.Millisecond, errBoom)
	if got := s.State(addr); got != Open {
		t.Fatalf("state after 3 failures = %v, want open", got)
	}
	if s.Allow(addr) {
		t.Fatal("OPEN breaker allowed a call inside cooldown")
	}
	if s.Healthy(addr) {
		t.Fatal("OPEN breaker reported healthy inside cooldown")
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	s := newTestSet(clk, Options{Threshold: 1, Cooldown: time.Second})
	const addr = "fd1:9200"
	s.Record(addr, time.Millisecond, errBoom)
	if got := s.State(addr); got != Open {
		t.Fatalf("state = %v, want open", got)
	}

	clk.advance(1100 * time.Millisecond)
	if !s.Healthy(addr) {
		t.Fatal("cooldown elapsed but Healthy still false")
	}
	if !s.Allow(addr) {
		t.Fatal("cooldown elapsed but probe refused")
	}
	// Exactly one probe: a second concurrent call must be refused.
	if s.Allow(addr) {
		t.Fatal("second call admitted while probe in flight")
	}
	if s.Healthy(addr) {
		t.Fatal("Healthy true while probe in flight")
	}

	// Failed probe re-arms the cooldown.
	s.Record(addr, time.Millisecond, errBoom)
	if got := s.State(addr); got != Open {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	if s.Allow(addr) {
		t.Fatal("call admitted during re-armed cooldown")
	}

	// Successful probe closes and resets.
	clk.advance(1100 * time.Millisecond)
	if !s.Allow(addr) {
		t.Fatal("second probe refused")
	}
	s.Record(addr, time.Millisecond, nil)
	if got := s.State(addr); got != Closed {
		t.Fatalf("state after good probe = %v, want closed", got)
	}
	if got := s.Score(addr); got != 0 {
		t.Fatalf("score after good probe = %v, want 0", got)
	}
}

func TestBreakerLatencyDegradationOpens(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	s := newTestSet(clk, Options{Threshold: 2, Cooldown: time.Second, LatencyFactor: 4})
	const addr = "fd1:9200"
	// Establish a ~1ms envelope.
	for i := 0; i < 20; i++ {
		s.Record(addr, time.Millisecond, nil)
	}
	// Sustained 100x latency: half a point each, opens at 2.0 after 4.
	for i := 0; i < 4; i++ {
		if got := s.State(addr); got != Closed {
			t.Fatalf("opened after only %d slow successes", i)
		}
		s.Record(addr, 100*time.Millisecond, nil)
	}
	if got := s.State(addr); got != Open {
		t.Fatalf("state after sustained slow successes = %v, want open", got)
	}
}

// TestBreakerLatencyFloor: a peer that answers in 50 µs teaches an
// envelope of a few hundred; a run of 1 ms answers — what a GC cycle on
// either side looks like — is far outside it and still no gray failure.
// Past the floor the same peer is indicted as before.
func TestBreakerLatencyFloor(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	s := newTestSet(clk, Options{Threshold: 2, Cooldown: time.Second, LatencyFactor: 4})
	const addr = "fs:9100"
	for i := 0; i < 50; i++ {
		s.Record(addr, 50*time.Microsecond, nil)
	}
	for i := 0; i < 8; i++ {
		s.Record(addr, time.Millisecond, nil)
	}
	if got, score := s.State(addr), s.Score(addr); got != Closed || score != 0 {
		t.Fatalf("a millisecond of jitter on a 50µs peer: state %v score %v, want closed and 0", got, score)
	}
	for i := 0; i < 4; i++ {
		s.Record(addr, 100*time.Millisecond, nil)
	}
	if got := s.State(addr); got != Open {
		t.Fatalf("state after sustained 100ms answers = %v, want open", got)
	}
}

func TestBreakerHealthyResponsesDecayScore(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	s := newTestSet(clk, Options{Threshold: 4, Cooldown: time.Second})
	const addr = "fd1:9200"
	s.Record(addr, time.Millisecond, errBoom)
	s.Record(addr, time.Millisecond, errBoom)
	high := s.Score(addr)
	s.Record(addr, time.Millisecond, nil)
	s.Record(addr, time.Millisecond, nil)
	if got := s.Score(addr); got >= high {
		t.Fatalf("score did not decay: %v -> %v", high, got)
	}
	if got := s.State(addr); got != Closed {
		t.Fatalf("state = %v, want closed", got)
	}
}

func TestSetTransitionCallback(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	type tr struct{ from, to State }
	var seen []tr
	opts := Options{Threshold: 1, Cooldown: time.Second, Now: clk.now,
		OnTransition: func(addr string, from, to State) { seen = append(seen, tr{from, to}) }}
	s := NewSet(opts)
	const addr = "a"
	s.Record(addr, time.Millisecond, errBoom) // closed -> open
	clk.advance(2 * time.Second)
	s.Allow(addr)                         // open -> half-open
	s.Record(addr, time.Millisecond, nil) // half-open -> closed
	want := []tr{{Closed, Open}, {Open, HalfOpen}, {HalfOpen, Closed}}
	if len(seen) != len(want) {
		t.Fatalf("transitions = %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("transition %d = %v, want %v", i, seen[i], want[i])
		}
	}
}

func TestNilSetIsSafe(t *testing.T) {
	var s *Set
	if !s.Allow("a") || !s.Healthy("a") {
		t.Fatal("nil Set must allow everything")
	}
	s.Record("a", time.Millisecond, errBoom)
	if s.State("a") != Closed || s.Score("a") != 0 || s.OpenCount() != 0 {
		t.Fatal("nil Set must report closed/zero")
	}
}

// The happy path — CLOSED breaker, healthy response — must not
// allocate: it runs once per RPC on the auction hot path.
func TestHappyPathZeroAllocs(t *testing.T) {
	s := NewSet(Options{})
	const addr = "fd1:9200"
	s.Record(addr, time.Millisecond, nil) // create the breaker outside the measured loop
	allocs := testing.AllocsPerRun(200, func() {
		if !s.Allow(addr) {
			t.Fatal("closed breaker refused")
		}
		if !s.Healthy(addr) {
			t.Fatal("closed breaker unhealthy")
		}
		s.Record(addr, time.Millisecond, nil)
	})
	if allocs != 0 {
		t.Fatalf("happy path allocates %v per call, want 0", allocs)
	}
}

func TestOpenCount(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	s := newTestSet(clk, Options{Threshold: 1, Cooldown: time.Minute})
	s.Record("a", time.Millisecond, errBoom)
	s.Record("b", time.Millisecond, nil)
	if got := s.OpenCount(); got != 1 {
		t.Fatalf("OpenCount = %d, want 1", got)
	}
}
