package main

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// A stalled target must not slow the schedule: every job is launched at
// its due instant although no call has returned yet.
func TestOpenLoopHoldsScheduleAgainstStalledTarget(t *testing.T) {
	const (
		jobs = 40
		span = 200 * time.Millisecond
	)
	offsets := poissonOffsets(rand.New(rand.NewSource(1)), jobs, span)
	release := make(chan struct{})
	var mu sync.Mutex
	lags := make([]time.Duration, 0, jobs)
	dues := make([]time.Time, jobs)

	start := time.Now()
	wg := openLoop(start, offsets, func(i int, due time.Time) {
		mu.Lock()
		lags = append(lags, time.Since(due))
		dues[i] = due
		mu.Unlock()
		<-release // the target hangs until the whole schedule has been offered
	})
	launched := time.Since(start)

	// Were the generator closed-loop, the first stalled call would hold up
	// the rest and this point would never be reached with every job out.
	mu.Lock()
	got := len(lags)
	mu.Unlock()
	close(release)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()

	if len(lags) != jobs {
		t.Fatalf("%d of %d jobs launched", len(lags), jobs)
	}
	// Generous slack for a loaded machine; a generator that waited on the
	// stalled calls would not finish at all.
	if launched > span+500*time.Millisecond {
		t.Errorf("schedule of %v took %v to offer", span, launched)
	}
	if got < jobs/2 {
		t.Errorf("only %d of %d jobs had started when the dispatcher returned", got, jobs)
	}
	for i, due := range dues {
		if want := start.Add(offsets[i]); !due.Equal(want) {
			t.Fatalf("job %d timed from %v, want its due instant %v", i, due, want)
		}
	}
	for _, lag := range lags {
		if lag < 0 {
			t.Errorf("job launched %v before it was due", -lag)
		}
		if lag > 500*time.Millisecond {
			t.Errorf("job launched %v late", lag)
		}
	}
}

// A dispatcher that starts late catches up instead of shifting the rest
// of the schedule: due instants stay absolute.
func TestOpenLoopCatchesUpWhenBehind(t *testing.T) {
	offsets := []time.Duration{0, time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}
	start := time.Now().Add(-50 * time.Millisecond) // already 50 ms behind
	var mu sync.Mutex
	var dues []time.Time
	began := time.Now()
	openLoop(start, offsets, func(i int, due time.Time) {
		mu.Lock()
		dues = append(dues, due)
		mu.Unlock()
	}).Wait()
	if took := time.Since(began); took > 40*time.Millisecond {
		t.Errorf("catching up on overdue jobs took %v; the dispatcher slept", took)
	}
	for _, due := range dues {
		if due.After(began) {
			t.Errorf("due instant %v was moved past the late start %v", due, began)
		}
	}
}

func TestPoissonOffsetsSeededSortedAndBounded(t *testing.T) {
	const span = time.Second
	a := poissonOffsets(rand.New(rand.NewSource(7)), 500, span)
	b := poissonOffsets(rand.New(rand.NewSource(7)), 500, span)
	c := poissonOffsets(rand.New(rand.NewSource(8)), 500, span)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different offset at %d: %v vs %v", i, a[i], b[i])
		}
		if a[i] < 0 || a[i] >= span {
			t.Fatalf("offset %v outside [0, %v)", a[i], span)
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("offsets not ascending at %d", i)
		}
		same = same && a[i] == c[i]
	}
	if same {
		t.Error("different seeds gave the same schedule")
	}
}

func TestClosedLoopIssuesNextOnlyAfterPrevious(t *testing.T) {
	var mu sync.Mutex
	active := map[int]int{}
	calls := 0
	closedLoop(3, time.Now().Add(30*time.Millisecond), func(caller, seq int) {
		mu.Lock()
		active[caller]++
		if active[caller] > 1 {
			t.Errorf("caller %d has %d calls in flight", caller, active[caller])
		}
		calls++
		mu.Unlock()
		time.Sleep(time.Millisecond)
		mu.Lock()
		active[caller]--
		mu.Unlock()
	})
	if calls < 3 {
		t.Errorf("%d calls from 3 callers in 30 ms", calls)
	}
}
