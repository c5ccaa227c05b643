package gantt

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"faucets/internal/sim"
)

// freeAt is the processors free at instant t.
func (c *Chart) freeAt(t float64) int { return c.minFree(t, t) }

func TestReserveAndQuery(t *testing.T) {
	c := NewChart(100)
	_, err := c.Reserve(0, 10, 60)
	if err != nil {
		t.Fatal(err)
	}
	if c.freeAt(5) != 40 {
		t.Fatalf("free=%d", c.freeAt(5))
	}
	if c.freeAt(10) != 100 { // half-open interval
		t.Fatal("reservation leaks past its end")
	}
}

func TestReserveValidation(t *testing.T) {
	c := NewChart(10)
	if _, err := c.Reserve(5, 5, 1); !errors.Is(err, ErrBadInterval) {
		t.Fatalf("err=%v", err)
	}
	if _, err := c.Reserve(0, 1, 0); !errors.Is(err, ErrBadPEs) {
		t.Fatalf("err=%v", err)
	}
	if _, err := c.Reserve(0, 1, 11); !errors.Is(err, ErrBadPEs) {
		t.Fatalf("err=%v", err)
	}
	// A NaN bound, or a start of +Inf, books nothing any query would see.
	nan, inf := math.NaN(), math.Inf(1)
	for _, b := range [][2]float64{{nan, 10}, {0, nan}, {nan, nan}, {inf, inf}, {inf, nan}} {
		if _, err := c.Reserve(b[0], b[1], 4); !errors.Is(err, ErrBadInterval) {
			t.Fatalf("Reserve(%v, %v): err=%v", b[0], b[1], err)
		}
	}
	if id, err := c.Reserve(0, 10, 10); id != 1 || err != nil {
		t.Fatalf("first good reservation: id=%d err=%v, want id 1", id, err)
	}
}

func TestReserveOverflowRejected(t *testing.T) {
	c := NewChart(10)
	if _, err := c.Reserve(0, 10, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Reserve(5, 15, 4); !errors.Is(err, ErrOverflow) {
		t.Fatalf("overlapping overflow accepted: %v", err)
	}
	// Non-overlapping is fine.
	if _, err := c.Reserve(10, 20, 10); err != nil {
		t.Fatal(err)
	}
}

func TestMinFreeAcrossBoundaries(t *testing.T) {
	c := NewChart(10)
	_, _ = c.Reserve(0, 5, 3)
	_, _ = c.Reserve(3, 8, 4)
	// Over [0,8): the worst instant is [3,5) with 7 used.
	if got := c.minFree(0, 8); got != 3 {
		t.Fatalf("MinFree=%d, want 3", got)
	}
	if got := c.minFree(5, 8); got != 6 {
		t.Fatalf("MinFree(5,8)=%d, want 6", got)
	}
}

func TestFindWindowImmediate(t *testing.T) {
	c := NewChart(10)
	start, ok := c.FindWindow(2, 5, 10, 0)
	if !ok || start != 2 {
		t.Fatalf("start=%v ok=%v", start, ok)
	}
}

func TestFindWindowAfterBusyPeriod(t *testing.T) {
	c := NewChart(10)
	_, _ = c.Reserve(0, 100, 8)
	// 5 PEs don't fit until t=100.
	start, ok := c.FindWindow(0, 10, 5, 0)
	if !ok || start != 100 {
		t.Fatalf("start=%v ok=%v, want 100", start, ok)
	}
	// 2 PEs fit immediately.
	start, ok = c.FindWindow(0, 10, 2, 0)
	if !ok || start != 0 {
		t.Fatalf("small job start=%v ok=%v", start, ok)
	}
}

func TestFindWindowDeadline(t *testing.T) {
	c := NewChart(10)
	_, _ = c.Reserve(0, 100, 8)
	if _, ok := c.FindWindow(0, 10, 5, 50); ok {
		t.Fatal("window found past the deadline")
	}
	if start, ok := c.FindWindow(0, 10, 5, 110); !ok || start != 100 {
		t.Fatalf("start=%v ok=%v", start, ok)
	}
}

func TestFindWindowGapBetweenReservations(t *testing.T) {
	c := NewChart(10)
	_, _ = c.Reserve(0, 10, 10)
	_, _ = c.Reserve(20, 30, 10)
	// A 10-second job needs the [10,20) gap.
	start, ok := c.FindWindow(0, 10, 6, 0)
	if !ok || start != 10 {
		t.Fatalf("start=%v ok=%v, want 10", start, ok)
	}
	// An 11-second job cannot use the gap; it must wait until 30.
	start, ok = c.FindWindow(0, 11, 6, 0)
	if !ok || start != 30 {
		t.Fatalf("start=%v ok=%v, want 30", start, ok)
	}
}

func TestFindWindowDegenerate(t *testing.T) {
	c := NewChart(10)
	if _, ok := c.FindWindow(0, 0, 5, 0); ok {
		t.Fatal("zero-duration window found")
	}
	if _, ok := c.FindWindow(0, 5, 11, 0); ok {
		t.Fatal("window wider than machine found")
	}
}

func TestOpenEndedReservation(t *testing.T) {
	c := NewChart(10)
	_, err := c.Reserve(0, math.Inf(1), 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.freeAt(1e12) != 6 {
		t.Fatal("open-ended reservation not honored")
	}
	start, ok := c.FindWindow(0, 5, 6, 0)
	if !ok || start != 0 {
		t.Fatalf("remaining capacity unusable: %v %v", start, ok)
	}
	if _, ok := c.FindWindow(0, 5, 7, 0); ok {
		t.Fatal("window found that can never exist")
	}
}

func TestHorizon(t *testing.T) {
	c := NewChart(10)
	if c.Horizon(5) != 5 {
		t.Fatalf("empty horizon=%v", c.Horizon(5))
	}
	_, _ = c.Reserve(0, 42, 1)
	_, _ = c.Reserve(0, math.Inf(1), 1)
	if c.Horizon(5) != 42 {
		t.Fatalf("horizon=%v, want 42 (infinite ends ignored)", c.Horizon(5))
	}
}

// Property: after any sequence of successful reservations, no sampled
// instant exceeds capacity, and FindWindow results actually fit.
func TestChartInvariantProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		c := NewChart(64)
		for i := 0; i < 60; i++ {
			switch rng.Intn(2) {
			case 0:
				start := rng.Range(0, 100)
				_, _ = c.Reserve(start, start+rng.Range(1, 50), 1+rng.Intn(64))
			case 1:
				pe := 1 + rng.Intn(64)
				dur := rng.Range(1, 30)
				if start, ok := c.FindWindow(rng.Range(0, 120), dur, pe, 0); ok {
					if c.minFree(start, start+dur) < pe {
						return false // window does not actually fit
					}
				}
			}
			// Capacity invariant at sampled instants.
			for s := 0; s < 5; s++ {
				if c.freeAt(rng.Range(0, 160)) < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: FindWindow returns the earliest feasible start — no
// candidate boundary before it fits.
func TestFindWindowEarliestProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		c := NewChart(32)
		for i := 0; i < 10; i++ {
			start := rng.Range(0, 50)
			_, _ = c.Reserve(start, start+rng.Range(1, 20), 1+rng.Intn(32))
		}
		pe := 1 + rng.Intn(32)
		dur := rng.Range(1, 10)
		start, ok := c.FindWindow(0, dur, pe, 0)
		if !ok {
			return true
		}
		// Probe a handful of earlier instants: none may fit.
		for i := 0; i < 20; i++ {
			probe := rng.Range(0, start)
			if probe < start && c.minFree(probe, probe+dur) >= pe {
				// probe fits but is before the "earliest" — only legal
				// if probe is not reachable from a boundary; earliest
				// feasibility is defined over boundary candidates, so a
				// mid-gap probe that fits means the preceding boundary
				// must also fit. Check that boundary.
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
