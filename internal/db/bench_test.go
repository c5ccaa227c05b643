package db

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"faucets/internal/telemetry"
)

// settleShaped is one settlement as the Central Server commits it: a
// credit transfer, the settled-mark and the contract row, one Tx.
func settleShaped(d *DB, i int64) {
	job := "job-" + strconv.FormatInt(i, 10)
	d.Update(func(tx *Tx) error {
		if tx.Settled(job) {
			return nil
		}
		if err := tx.TransferCredits("home", "remote", 1); err != nil {
			return err
		}
		tx.MarkSettled(job)
		tx.AppendContract(ContractRecord{JobID: job, App: "synth", Server: "remote", MinPE: 2, MaxPE: 8, Price: 1, Multiplier: 1})
		return nil
	})
}

// settleCase commits one settle-shaped transaction on d per call, each
// for a job not settled before; it is safe for concurrent callers.
func settleCase(d *DB) func() {
	var next atomic.Int64
	return func() { settleShaped(d, next.Add(1)) }
}

// BenchmarkSettleTx is the db layer's share of a settlement: settleCase
// per op. ephemeral is the in-memory apply alone (a fresh database every
// 64k ops keeps the history bounded); durable_N has N callers committing
// concurrently against one WAL, and fsyncs/op says how many of them one
// group fsync covers. TestSettleTxAllocs pins ephemeral and durable_1 at
// ≤ 2 allocs/op.
func BenchmarkSettleTx(b *testing.B) {
	b.Run("ephemeral", func(b *testing.B) {
		b.ReportAllocs()
		var settle func()
		for i := 0; i < b.N; i++ {
			if i%(1<<16) == 0 {
				b.StopTimer()
				settle = settleCase(New())
				b.StartTimer()
			}
			settle()
		}
	})
	for _, callers := range []int{1, 8} {
		b.Run(fmt.Sprintf("durable_%d", callers), func(b *testing.B) {
			d, err := Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			reg := telemetry.NewRegistry()
			d.Instrument(reg)
			syncs := reg.Counter("faucets_db_wal_sync_total", "")
			settle := settleCase(d)
			b.ReportAllocs()
			b.ResetTimer()
			var claimed atomic.Int64
			var wg sync.WaitGroup
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for claimed.Add(1) <= int64(b.N) {
						settle()
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(syncs.Value())/float64(b.N), "fsyncs/op")
		})
	}
}
