package central

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"faucets/internal/accounting"
	"faucets/internal/db"
	"faucets/internal/protocol"
)

var errDiskFull = errors.New("injected disk full")

// crashCopy copies a state dir's files as they are on disk right now —
// the moral equivalent of kill -9 — and opens the copy.
func crashCopy(t *testing.T, dir string) *db.DB {
	t.Helper()
	out := t.TempDir()
	for _, name := range []string{"wal.jsonl", "snapshot.json"} {
		blob, err := os.ReadFile(filepath.Join(dir, name))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(out, name), blob, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	rec, err := db.Open(out)
	if err != nil {
		t.Fatalf("recovering the crash copy: %v", err)
	}
	t.Cleanup(func() { rec.Close() })
	return rec
}

// rowsByJob counts each job's contract rows.
func rowsByJob(d *db.DB) map[string]int {
	rows := map[string]int{}
	for _, r := range d.RecentContracts(nil, d.HistoryLen()) {
		rows[r.JobID]++
	}
	return rows
}

// durableServer is a Dollars-mode Central Server over a fresh state dir.
func durableServer(t *testing.T) (*Server, string) {
	t.Helper()
	dir := t.TempDir()
	store, err := db.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := NewWithDB(accounting.Dollars, store)
	t.Cleanup(func() {
		s.Close()
		store.Close()
	})
	return s, dir
}

// TestSettleShortWriteDoesNotLoseTheNextAck: a flush that fails after
// writing part of its bytes leaves them in the WAL. Settle A, in that
// flush, is refused retryable; settle B, acknowledged after it, must be
// in a crash copy exactly once (appended behind the torn bytes, replay
// used to cut it off with them); and A's redelivery is charged once.
func TestSettleShortWriteDoesNotLoseTheNextAck(t *testing.T) {
	s, dir := durableServer(t)
	s.DB.FailWALAppends(1, errDiskFull)
	reqA, reqB := settleReq("j-A", 5), settleReq("j-B", 7)
	if err := s.Settle(reqA); err == nil || !protocol.IsRetryable(err) {
		t.Fatalf("settle A on a short write = %v, want a retryable refusal", err)
	}
	if err := s.Settle(reqB); err != nil {
		t.Fatalf("settle B after the failed flush: %v", err)
	}

	rec := crashCopy(t, dir)
	if !rec.Settled("j-B") || rowsByJob(rec)["j-B"] != 1 {
		t.Fatalf("acknowledged settle B in the crash copy: settled=%v rows=%d, want once",
			rec.Settled("j-B"), rowsByJob(rec)["j-B"])
	}

	if err := s.Settle(reqA); err != nil {
		t.Fatalf("A's redelivery: %v", err)
	}
	if rev := s.DB.Revenue("turing"); rev != 12 {
		t.Fatalf("revenue=%v, want 12 (A and B charged once each)", rev)
	}
	if rows := rowsByJob(s.DB); rows["j-A"] != 1 || rows["j-B"] != 1 {
		t.Fatalf("history rows %v, want one per job", rows)
	}
}

// TestSettleFailedFlushKeepsWeatherInStep: a settlement applied in
// memory is in the history whatever its durability verdict, so the
// weather aggregate must count it too — after a failed flush and its
// redelivery the two agree.
func TestSettleFailedFlushKeepsWeatherInStep(t *testing.T) {
	s, _ := durableServer(t)
	s.DB.FailWALAppends(1, errDiskFull)
	req := settleReq("j-flush", 5)
	if err := s.Settle(req); err == nil {
		t.Fatal("settle on a failed flush acknowledged")
	}
	if err := s.Settle(req); err != nil {
		t.Fatalf("redelivery: %v", err)
	}
	if got, want := s.Weather().Contracts, s.DB.HistoryLen(); got != want {
		t.Fatalf("Weather().Contracts = %d, HistoryLen() = %d", got, want)
	}
}

// TestConcurrentSettleRedeliveryCrashCopy: eight goroutines settle jobs
// against a durable database, each job delivered twice at once (the
// original and a redelivery), and the state dir is copied mid-flight.
// Every job acknowledged before the copy is settled exactly once in it,
// and the copy's money adds up: Σ revenue = Σ spend = Σ history prices.
func TestConcurrentSettleRedeliveryCrashCopy(t *testing.T) {
	s, dir := durableServer(t)
	users := []string{"u0", "u1", "u2", "u3"}
	servers := []string{"s0", "s1", "s2"}
	req := func(i int64) protocol.SettleReq {
		return protocol.SettleReq{
			JobID: fmt.Sprintf("job-%d", i), User: users[i%4], Server: servers[i%3],
			App: "synth", MinPE: 1, MaxPE: 8, Price: float64(1 + i%5), CPUSeconds: 10,
		}
	}

	var (
		next  atomic.Int64
		stop  atomic.Bool
		ackMu sync.Mutex
		acked []string
		wg    sync.WaitGroup
	)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				r := req(next.Add(1))
				redelivered := make(chan error, 1)
				go func() { redelivered <- s.Settle(r) }()
				err := s.Settle(r)
				if err2 := <-redelivered; err == nil {
					err = err2
				}
				if err != nil {
					t.Error(err)
					return
				}
				ackMu.Lock()
				acked = append(acked, r.JobID)
				ackMu.Unlock()
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	ackMu.Lock()
	ackedAtCrash := append([]string(nil), acked...)
	ackMu.Unlock()
	rec := crashCopy(t, dir)
	stop.Store(true)
	wg.Wait()

	if len(ackedAtCrash) == 0 {
		t.Fatal("nothing acknowledged before the crash copy")
	}
	rows := rowsByJob(rec)
	for _, job := range ackedAtCrash {
		if !rec.Settled(job) || rows[job] != 1 {
			t.Fatalf("acknowledged %s in the crash copy: settled=%v rows=%d, want exactly once",
				job, rec.Settled(job), rows[job])
		}
	}
	var revenue, spend, prices float64
	for _, sv := range servers {
		revenue += rec.Revenue(sv)
	}
	for _, u := range users {
		spend += rec.Spend(u)
	}
	for job, n := range rows {
		if n != 1 {
			t.Fatalf("%s has %d history rows", job, n)
		}
	}
	for _, r := range rec.RecentContracts(nil, rec.HistoryLen()) {
		prices += r.Price
	}
	if revenue != spend || spend != prices {
		t.Fatalf("crash copy: Σ revenue %v, Σ spend %v, Σ history prices %v", revenue, spend, prices)
	}
	settled := 0
	for i := int64(1); i <= next.Load(); i++ {
		if rec.Settled(fmt.Sprintf("job-%d", i)) {
			settled++
		}
	}
	if settled != rec.HistoryLen() {
		t.Fatalf("crash copy: %d settled marks, %d history rows", settled, rec.HistoryLen())
	}
}
