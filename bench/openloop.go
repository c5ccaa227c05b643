package main

import (
	"math/rand"
	"sort"
	"sync"
	"time"
)

// poissonOffsets returns n due-times in [0, span), ascending. They are
// the order statistics of n uniform draws, which is a Poisson process
// conditioned on its count: inter-arrival gaps are as bursty as Poisson
// traffic, yet every seed offers exactly n jobs, so runs with different
// seeds attempt the same amount of work.
func poissonOffsets(rng *rand.Rand, n int, span time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Float64() * float64(span))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// openLoop launches do(i, due) in its own goroutine at start+offsets[i]
// for every i, in order. The schedule is absolute: the dispatcher sleeps
// until each due instant and never waits for a launched call, so a slow
// or stalled target receives the same offered load as a fast one, and a
// dispatcher that falls behind catches up instead of shifting every later
// job. do is handed the due instant so latency can be timed from when the
// job should have been sent, not from when it was. openLoop returns once
// the last job is launched; wait on the returned group for the calls.
func openLoop(start time.Time, offsets []time.Duration, do func(i int, due time.Time)) *sync.WaitGroup {
	var wg sync.WaitGroup
	for i, off := range offsets {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			do(i, due)
		}()
	}
	return &wg
}

// closedLoop runs do from `callers` goroutines, each issuing its next
// call only after the previous one returned, until the deadline passes.
// do receives the caller index and that caller's call sequence number.
func closedLoop(callers int, deadline time.Time, do func(caller, seq int)) {
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := 0; time.Now().Before(deadline); seq++ {
				do(c, seq)
			}
		}()
	}
	wg.Wait()
}
