package db

import (
	"encoding/json"
	"os"
	"testing"
)

// fuzzFingerprint serializes the database's logical state (everything
// except the WAL sequence cursor) so recovery paths can be compared for
// byte-identical outcomes. JSON map rendering is key-sorted, so equal
// states produce equal fingerprints.
func fuzzFingerprint(t *testing.T, d *DB) string {
	t.Helper()
	d.mu.RLock()
	defer d.mu.RUnlock()
	s := d.data
	s.Seq = 0
	blob, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("fingerprint: %v", err)
	}
	return string(blob)
}

// seedStateDir builds a real durable database — snapshot plus live WAL
// tail — and returns the two files' contents as fuzz seeds.
func seedStateDir(f *testing.F) (snap, wal []byte) {
	dir := f.TempDir()
	d, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	d.Update(func(tx *Tx) error { putUser(tx, UserRecord{Name: "ana", HomeCluster: "turing"}); return nil })
	d.AddCredits("turing", 100)
	d.Compact() // folds the above into snapshot.json
	d.Update(func(tx *Tx) error { putUser(tx, UserRecord{Name: "bo", HomeCluster: "pascal"}); return nil })
	d.Update(func(tx *Tx) error {
		_ = tx.TransferCredits("turing", "pascal", 12.5)
		tx.MarkSettled("job-1", "", 0)
		tx.AppendContract(ContractRecord{JobID: "job-1", App: "synth", Server: "pascal", Price: 3})
		return nil
	})
	d.Update(func(tx *Tx) error { tx.AddRevenue("pascal", 3); return nil })
	d.Update(func(tx *Tx) error { tx.AddSpend("ana", 3); return nil })
	if err := d.Close(); err != nil {
		f.Fatal(err)
	}
	snap, _ = os.ReadFile(snapshotFile(dir))
	wal, _ = os.ReadFile(walFile(dir))
	return snap, wal
}

// FuzzWALRecovery throws arbitrary snapshot and WAL bytes at the
// recovery path. Whatever the input, Open must never panic; when it
// succeeds, the recovered state must be stable across a close/reopen
// cycle (replay is idempotent — nothing double-applies) and across a
// compaction (folding the WAL into the snapshot loses nothing).
func FuzzWALRecovery(f *testing.F) {
	snap, wal := seedStateDir(f)
	f.Add(snap, wal)
	// Torn tail: a crash mid-append leaves a half-written record.
	f.Add(snap, append(append([]byte{}, wal...), []byte(`{"seq":99,"op":"add_credits","key":"x","amou`)...))
	// Stale sequence: a record the snapshot already covers must not
	// re-apply.
	f.Add(snap, []byte(`{"seq":1,"op":"add_credits","key":"turing","amount":100}`+"\n"))
	// Batch records, nested and empty.
	f.Add([]byte(nil), []byte(`{"seq":1,"op":"batch","recs":[{"op":"add_credits","key":"a","amount":1},{"op":"settled","job_id":"j"}]}`+"\n"))
	f.Add([]byte(nil), []byte(nil))
	f.Add([]byte(`{"seq":"not-a-number"}`), wal)
	f.Add([]byte(`{}`), []byte("not json at all\n\n{\"op\":\"\"}\n"))
	// Settled marks naming the run: one job ID booked on two servers.
	f.Add([]byte(nil), []byte(`{"seq":1,"op":"batch","recs":[{"op":"settled","key":"turing","job_id":"j","admission":7},{"op":"settled","key":"lemieux","job_id":"j","admission":7}]}`+"\n"))
	// Marks written before runs were named: a snapshot's true and a WAL
	// record with no server or admission.
	f.Add([]byte(`{"seq":1,"settled":{"job-1":true}}`), []byte(`{"seq":2,"op":"settled","job_id":"job-1"}`+"\n"))

	f.Fuzz(func(t *testing.T, snapBytes, walBytes []byte) {
		dir := t.TempDir()
		if len(snapBytes) > 0 {
			if err := os.WriteFile(snapshotFile(dir), snapBytes, 0o600); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(walFile(dir), walBytes, 0o600); err != nil {
			t.Fatal(err)
		}
		d, err := Open(dir)
		if err != nil {
			return // rejected input is fine; panicking or wedging is not
		}
		want := fuzzFingerprint(t, d)
		if err := d.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}

		// Reopen replays the (now tail-truncated) WAL over the same
		// snapshot: any drift means a record applied twice or got lost.
		d2, err := Open(dir)
		if err != nil {
			t.Fatalf("reopen after clean close: %v", err)
		}
		if got := fuzzFingerprint(t, d2); got != want {
			t.Fatalf("state drifted across restart:\n got %s\nwant %s", got, want)
		}

		// Compaction folds the WAL into the snapshot; recovery from the
		// compacted layout must land on the identical state.
		if err := d2.Compact(); err != nil {
			t.Fatalf("compact: %v", err)
		}
		if err := d2.Close(); err != nil {
			t.Fatalf("close after compact: %v", err)
		}
		d3, err := Open(dir)
		if err != nil {
			t.Fatalf("reopen after compact: %v", err)
		}
		if got := fuzzFingerprint(t, d3); got != want {
			t.Fatalf("state drifted across compaction:\n got %s\nwant %s", got, want)
		}
		if err := d3.Close(); err != nil {
			t.Fatalf("final close: %v", err)
		}
	})
}
