package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, at := range []Time{5, 1, 3, 2, 4} {
		at := at
		e.At(at, "ev", func(*Engine) { got = append(got, at) })
	}
	end := e.Run()
	if end != 5 {
		t.Fatalf("final time = %v, want 5", end)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("events fired out of order: %v", got)
	}
	if len(got) != 5 {
		t.Fatalf("fired %d events, want 5", len(got))
	}
}

func TestEngineTieBreakBySequence(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(7, "tie", func(*Engine) { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events fired out of insertion order: %v", got)
		}
	}
}

func TestEngineTieBreakByPriority(t *testing.T) {
	e := NewEngine()
	var got []int
	e.AtPriority(1, 5, "low", func(*Engine) { got = append(got, 5) })
	e.AtPriority(1, -1, "high", func(*Engine) { got = append(got, -1) })
	e.AtPriority(1, 2, "mid", func(*Engine) { got = append(got, 2) })
	e.Run()
	want := []int{-1, 2, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("priority order = %v, want %v", got, want)
		}
	}
}

func TestEngineAfterSchedulesRelative(t *testing.T) {
	e := NewEngine()
	var at Time
	e.At(10, "outer", func(en *Engine) {
		en.After(5, "inner", func(en2 *Engine) { at = en2.Now() })
	})
	e.Run()
	if at != 15 {
		t.Fatalf("inner fired at %v, want 15", at)
	}
}

func TestEnginePanicsOnPastEvent(t *testing.T) {
	e := NewEngine()
	e.At(10, "x", func(en *Engine) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		en.At(5, "past", func(*Engine) {})
	})
	e.Run()
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.At(3, "victim", func(*Engine) { fired = true })
	e.At(1, "canceller", func(en *Engine) { en.Cancel(ev) })
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !ev.Cancelled() {
		t.Fatal("event does not report cancelled")
	}
	// Double-cancel must be a no-op.
	e.Cancel(ev)
	e.Cancel(nil)
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	n := 0
	for i := 1; i <= 10; i++ {
		e.At(Time(i), "tick", func(en *Engine) {
			n++
			if n == 3 {
				en.Stop()
			}
		})
	}
	e.Run()
	if n != 3 {
		t.Fatalf("executed %d events after Stop, want 3", n)
	}
}

func TestEngineHorizon(t *testing.T) {
	e := NewEngine()
	n := 0
	for i := 1; i <= 10; i++ {
		e.At(Time(i), "tick", func(*Engine) { n++ })
	}
	e.SetHorizon(4)
	end := e.Run()
	if n != 4 {
		t.Fatalf("executed %d events, want 4 (horizon inclusive)", n)
	}
	if end != 4 {
		t.Fatalf("end = %v, want 4", end)
	}
}

func TestEngineRunUntilAdvancesClock(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(2, "a", func(*Engine) { fired++ })
	e.At(9, "b", func(*Engine) { fired++ })
	e.RunUntil(5)
	if fired != 1 {
		t.Fatalf("fired=%d, want 1", fired)
	}
	if e.Now() != 5 {
		t.Fatalf("Now=%v, want 5", e.Now())
	}
	e.RunUntil(20)
	if fired != 2 || e.Now() != 20 {
		t.Fatalf("fired=%d Now=%v, want 2/20", fired, e.Now())
	}
}

func TestEngineFiredAndPendingCounts(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.At(Time(i), "e", func(*Engine) {})
	}
	if e.Pending() != 5 {
		t.Fatalf("pending=%d, want 5", e.Pending())
	}
	e.Run()
	if e.Fired() != 5 || e.Pending() != 0 {
		t.Fatalf("fired=%d pending=%d, want 5/0", e.Fired(), e.Pending())
	}
}

// Property: for any batch of event times, execution order is the sorted
// order of times (stable over insertion for equal times).
func TestEngineOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		e := NewEngine()
		var fired []Time
		for _, r := range raw {
			at := Time(r)
			e.At(at, "p", func(*Engine) { fired = append(fired, at) })
		}
		e.Run()
		if len(fired) != len(raw) {
			return false
		}
		want := make([]Time, len(raw))
		for i, r := range raw {
			want[i] = Time(r)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestToDurationSaturates(t *testing.T) {
	if ToDuration(Duration(math.Inf(1))) <= 0 {
		t.Fatal("positive infinity should saturate to a large positive duration")
	}
	if ToDuration(Duration(math.Inf(-1))) >= 0 {
		t.Fatal("negative infinity should saturate to a large negative duration")
	}
	if got := ToDuration(1.5); got.Seconds() != 1.5 {
		t.Fatalf("ToDuration(1.5) = %v", got)
	}
}

func TestWallClockMonotone(t *testing.T) {
	c := NewWallClock()
	a := c.Now()
	b := c.Now()
	if b < a {
		t.Fatalf("wall clock went backwards: %v then %v", a, b)
	}
}

// BenchmarkEngineEventChurn is one event scheduled and fired on an
// otherwise empty queue.
func BenchmarkEngineEventChurn(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(1, "tick", func(*Engine) {})
		e.Step()
	}
}

// BenchmarkEngineHeap1k is the same churn against a 1000-event horizon.
func BenchmarkEngineHeap1k(b *testing.B) {
	e := NewEngine()
	rng := NewRNG(1)
	for i := 0; i < 1000; i++ {
		e.After(Duration(rng.Range(0, 100)), "seed", func(*Engine) {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(Duration(rng.Range(0, 100)), "churn", func(*Engine) {})
		e.Step()
	}
}
