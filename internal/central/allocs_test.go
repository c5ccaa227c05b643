//go:build !race

package central

import (
	"fmt"
	"runtime"
	"testing"

	"faucets/internal/accounting"
	"faucets/internal/db"
	"faucets/internal/protocol"
)

// The race detector adds allocations of its own, so the pins stand down
// under -race.

// TestServersAllocs pins BenchmarkServers/fleet_16{,_append}: a Place's
// directory read over sixteen servers is its one listing, and none when
// appended into the listing the last read left.
func TestServersAllocs(t *testing.T) {
	if got := testing.AllocsPerRun(100, serversCase(t, 16, false)); got > 1 {
		t.Errorf("Servers over 16: %v allocs, want ≤ 1", got)
	}
	if got := testing.AllocsPerRun(100, serversCase(t, 16, true)); got != 0 {
		t.Errorf("appendFederated over 16 into a used listing: %v allocs, want 0", got)
	}
}

// TestSettleAllocs pins what one settlement allocates: on an ephemeral
// database the contract row (≤ 1); on a durable one no more than that
// (0 measured) — the WAL line is encoded straight into the writer's
// buffer and waiting for its ticket allocates nothing; the billing rule
// alone, nothing.
func TestSettleAllocs(t *testing.T) {
	const runs = 100
	reqs := make([]protocol.SettleReq, 2*(runs+1))
	for i := range reqs {
		reqs[i] = protocol.SettleReq{JobID: fmt.Sprintf("j-%d", i), User: "u", Server: "s", App: "synth", MaxPE: 8, Price: 1, CPUSeconds: 10}
	}
	settleAll := func(s *Server, reqs []protocol.SettleReq) func() {
		i := 0
		return func() {
			if err := s.Settle(reqs[i]); err != nil {
				t.Fatal(err)
			}
			i++
		}
	}

	eph := New(accounting.Dollars)
	defer eph.Close()
	if got := testing.AllocsPerRun(runs, settleAll(eph, reqs[:runs+1])); got > 1 {
		t.Errorf("ephemeral central.Settle: %v allocs, want ≤ 1", got)
	}

	store, err := db.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	dur := NewWithDB(accounting.Dollars, store)
	defer dur.Close()
	if got := testing.AllocsPerRun(runs, settleAll(dur, reqs[runs+1:])); got > 0 {
		t.Errorf("durable central.Settle: %v allocs, want 0", got)
	}

	acct := accounting.New(accounting.Dollars, db.New())
	if got := testing.AllocsPerRun(runs, func() { _ = acct.Settle("j", "u", "", "s", 1) }); got != 0 {
		t.Errorf("ephemeral Accountant.Settle: %v allocs, want 0", got)
	}
}

// TestSettleDispatchAllocs pins the settle arm: the job ID, the deferred
// reply's hand-off and, once a history page is full, the next page.
func TestSettleDispatchAllocs(t *testing.T) {
	if got := testing.AllocsPerRun(100, settleDispatchCase(t, 101)); got > 3 {
		t.Errorf("settle arm: %v allocs, want ≤ 3", got)
	}
	// ≈155 B: the job ID, the settled mark's and the row's shares of
	// their tables, and the 16-byte hand-off to the task's goroutine. A
	// closure holding a copy of the request is 160 B by itself.
	if got := bytesPerRun(1000, settleDispatchCase(t, 1001)); got > 240 {
		t.Errorf("settle arm: %d B a run, want ≤ 240", got)
	}
}

// bytesPerRun is what f allocates a call over runs calls after one to
// warm it, as testing.Benchmark's B/op counts it but over a fixed number
// of runs: a dispatch case prepares one frame a run.
func bytesPerRun(runs int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}
