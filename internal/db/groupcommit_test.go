package db

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"faucets/internal/jsonl"
	"faucets/internal/telemetry"
)

// settleTx is a settlement's shape: transfer + settled-mark as one
// transaction, skipped (an empty Tx) when the job is already settled.
func settleTx(d *DB, job string) error {
	return d.Update(func(tx *Tx) error {
		if tx.Settled(job, "", 0) {
			return nil
		}
		if err := tx.TransferCredits("payer", "payee", 1); err != nil {
			return err
		}
		tx.MarkSettled(job, "", 0)
		return nil
	})
}

// crashCopy copies a state dir's files as they are on disk right now —
// the moral equivalent of kill -9 — into a fresh dir.
func crashCopy(t *testing.T, dir string) string {
	t.Helper()
	out := t.TempDir()
	for _, name := range []string{filepath.Base(walFile(dir)), filepath.Base(snapshotFile(dir))} {
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
	return out
}

// TestGroupCommitCrashConsistency drives concurrent single-record
// mutators and several concurrent settle loops through the group-commit
// path, copies the state dir mid-flight, and recovers from the copy.
// Every operation acknowledged before the copy must be present exactly
// once; settle transactions must be all-or-nothing.
func TestGroupCommitCrashConsistency(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	var (
		ackMu      sync.Mutex
		ackCredits = map[string]bool{} // AddCredits keys whose call returned
		ackSettled = map[string]bool{} // jobs whose settle Update returned nil
		stop       atomic.Bool
	)

	const workers, settlers = 6, 4
	var wg sync.WaitGroup
	// Concurrent single-record mutators: each key is touched by exactly
	// one +1, so any recovered balance other than 0 or 1 is a lost or
	// double-applied record.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				key := fmt.Sprintf("acct-%d-%d", w, i)
				d.AddCredits(key, 1)
				ackMu.Lock()
				ackCredits[key] = true
				ackMu.Unlock()
			}
		}(w)
	}
	// Concurrent settle loops, as the Central Server runs them: nothing
	// serializes one settlement behind another's fsync.
	for s := 0; s < settlers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				job := fmt.Sprintf("job-%d-%d", s, i)
				if err := settleTx(d, job); err != nil {
					t.Error(err)
					return
				}
				ackMu.Lock()
				ackSettled[job] = true
				ackMu.Unlock()
			}
		}(s)
	}

	// Let traffic build, then "crash": clone the acked sets FIRST, then
	// copy the files. Anything acked before the clone was fsync'd before
	// the copy, so it must be in the copied bytes; a torn tail from an
	// in-flight append is expected and must be survivable.
	time.Sleep(50 * time.Millisecond)
	ackMu.Lock()
	credAtCrash := make([]string, 0, len(ackCredits))
	for k := range ackCredits {
		credAtCrash = append(credAtCrash, k)
	}
	settledAtCrash := make([]string, 0, len(ackSettled))
	for k := range ackSettled {
		settledAtCrash = append(settledAtCrash, k)
	}
	ackMu.Unlock()
	if len(credAtCrash) == 0 || len(settledAtCrash) == 0 {
		t.Fatalf("no traffic before crash: %d credits, %d settles", len(credAtCrash), len(settledAtCrash))
	}
	crashDir := crashCopy(t, dir)

	stop.Store(true)
	wg.Wait()

	rec, err := Open(crashDir)
	if err != nil {
		t.Fatalf("recovery from mid-flight WAL copy: %v", err)
	}
	defer rec.Close()

	// Exactly-once for acknowledged single-record mutations.
	for _, key := range credAtCrash {
		if got := rec.Credits(key); got != 1 {
			t.Fatalf("acked credit %s recovered as %v, want exactly 1", key, got)
		}
	}
	// No key anywhere may exceed 1: a 2 would be a double-applied record.
	for w := 0; w < workers; w++ {
		for i := 0; ; i++ {
			key := fmt.Sprintf("acct-%d-%d", w, i)
			got := rec.Credits(key)
			if got == 0 {
				break
			}
			if got != 1 {
				t.Fatalf("credit %s recovered as %v, want 0 or 1", key, got)
			}
		}
	}
	// Acked settles survived; transactions are atomic, so the payer/payee
	// pair must agree exactly with the number of settled marks replayed.
	for _, job := range settledAtCrash {
		if !rec.Settled(job) {
			t.Fatalf("acked settle %s lost in recovery", job)
		}
	}
	applied := 0
	for s := 0; s < settlers; s++ {
		for i := 0; rec.Settled(fmt.Sprintf("job-%d-%d", s, i)); i++ {
			applied++
		}
	}
	if got := rec.Credits("payee"); got != float64(applied) {
		t.Fatalf("payee = %v, want %d (one per applied settle)", got, applied)
	}
	if got := rec.Credits("payer"); got != float64(-applied) {
		t.Fatalf("payer = %v, want %d — settle transaction torn apart on replay", got, -applied)
	}
}

// TestMutationBesideOpenSettleIsDurable: a mutation that returns while
// another goroutine's settlement transaction is open must already be on
// disk. (A DB-global open batch used to swallow it: AddCredits returned
// at once and a crash copy taken then recovered the balance as 0.)
func TestMutationBesideOpenSettleIsDurable(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	open, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	letGo := func() { once.Do(func() { close(release) }) }
	settled := make(chan error, 1)
	go func() {
		settled <- d.Update(func(tx *Tx) error {
			close(open)
			<-release
			tx.MarkSettled("job-1", "", 0)
			return tx.TransferCredits("payer", "payee", 1)
		})
	}()
	<-open
	credited := make(chan struct{})
	go func() {
		d.AddCredits("acct", 1)
		close(credited)
	}()
	select {
	case <-credited: // returned with the settle still open
	case <-time.After(20 * time.Millisecond):
		letGo() // it waits for the settle to let go
		<-credited
	}
	crashDir := crashCopy(t, dir)
	letGo()
	if err := <-settled; err != nil {
		t.Fatal(err)
	}

	rec, err := Open(crashDir)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if got := rec.Credits("acct"); got != 1 {
		t.Fatalf("acknowledged AddCredits recovered as %v, want 1", got)
	}
}

// TestUpdateSurfacesWALFailure: when the group fsync fails, the caller
// gets ErrNotDurable back (so Central withholds the settlement ack) and
// the append-error counter records the loss.
func TestUpdateSurfacesWALFailure(t *testing.T) {
	// A WAL opened read-only: every write fails the way a full or failing
	// disk's would.
	open := jsonl.OpenFile
	jsonl.OpenFile = func(path string) (jsonl.File, error) {
		return os.OpenFile(path, os.O_CREATE|os.O_RDONLY, 0o600)
	}
	d, err := Open(t.TempDir())
	jsonl.OpenFile = open
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	reg := telemetry.NewRegistry()
	d.Instrument(reg)

	if err := settleTx(d, "j-fail"); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("settle on a dead WAL file = %v, want ErrNotDurable", err)
	}
	// Memory still has the mutation (the next compaction makes it
	// durable), but the failure was counted.
	if !d.Settled("j-fail") {
		t.Fatal("in-memory state rolled back; it must stay applied")
	}
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if v, ok := telemetry.SampleValue(buf.String(), "faucets_db_wal_append_errors_total"); !ok || v < 1 {
		t.Fatalf("faucets_db_wal_append_errors_total = %v (present=%v), want >= 1", v, ok)
	}
}
