//go:build !race

package db

import (
	"runtime"
	"testing"
	"unsafe"
)

// The race detector adds allocations of its own, so the pins stand down
// under -race.

// TestSettleTxAllocs pins BenchmarkSettleTx/{ephemeral,durable_1}: a
// settlement's transaction costs its job ID and its share of table
// growth, and on a durable database no more — its WAL line is encoded
// into the log writer's own buffer and waiting on its ticket allocates
// nothing.
func TestSettleTxAllocs(t *testing.T) {
	if got := testing.AllocsPerRun(1000, settleCase(New())); got > 2 {
		t.Errorf("ephemeral settle: %v allocs, want ≤ 2", got)
	}
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if got := testing.AllocsPerRun(100, settleCase(d)); got > 2 {
		t.Errorf("durable settle, one caller: %v allocs, want ≤ 2", got)
	}
}

// TestMutatorAllocs pins the ephemeral mutators: a balance change
// allocates nothing, and neither does a contract appended into a history
// page with room (AllocsPerRun's warm-up call makes the first page).
func TestMutatorAllocs(t *testing.T) {
	const runs = 100
	d := New()
	rec := ContractRecord{JobID: "j", Server: "s", Price: 1}
	for _, c := range []struct {
		name string
		max  float64
		f    func()
	}{
		{"AddRevenue", 0, func() { d.Update(func(tx *Tx) error { tx.AddRevenue("s", 1); return nil }) }},
		{"AppendContract", 0, func() { d.Update(func(tx *Tx) error { tx.AppendContract(rec); return nil }) }},
	} {
		if got := testing.AllocsPerRun(runs, c.f); got > c.max {
			t.Errorf("%s: %v allocs, want ≤ %v", c.name, got, c.max)
		}
	}
}

// TestHistoryAppendBytes: appending 4 096 contracts to a history of
// 100 000 allocates the rows' own room and no more — one page of slack
// for the page they start in, and the page list's regrowth. No row
// already kept is copied; one slice, regrown ≈1.25× at a time, copied
// all 100 000 here into 11.3 MB (≈4.6 times the rows' room amortised).
func TestHistoryAppendBytes(t *testing.T) {
	const kept, added = 100_000, 4096
	d := New()
	rec := ContractRecord{JobID: "j", Server: "s", Price: 1}
	appendN := func(n int) {
		for range n {
			d.Update(func(tx *Tx) error { tx.AppendContract(rec); return nil })
		}
	}
	appendN(kept)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	appendN(added)
	runtime.ReadMemStats(&after)
	row, ptr := unsafe.Sizeof(ContractRecord{}), unsafe.Sizeof(uintptr(0))
	limit := (added+historyPageRows)*row + 2*ptr*((kept+added)/historyPageRows+1)
	if got := after.TotalAlloc - before.TotalAlloc; got > uint64(limit) {
		t.Errorf("appending %d rows to %d: %d bytes, want ≤ %d", added, kept, got, limit)
	}
}
