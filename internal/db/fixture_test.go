package db

import (
	"os"
	"strings"
	"testing"
)

// The files below are the literal bytes the commit before internal/jsonl
// wrote for the operations in writeFixtureOps.
const fixtureWAL = `{"seq":1,"op":"put_user","user":{"name":"alice","home_cluster":"turing"}}
{"seq":2,"op":"add_credits","key":"turing","amount":100}
{"seq":3,"op":"batch","recs":[{"op":"add_spend","key":"alice","amount":16},{"op":"add_revenue","key":"lemieux","amount":16},{"op":"settled","job_id":"job-1"},{"op":"contract","contract":{"time":1.5,"job_id":"job-1","app":"synth","server":"lemieux","min_pe":2,"max_pe":16,"price":16,"multiplier":0.008}}]}
{"seq":4,"op":"transfer","key":"turing","to":"lemieux","amount":4}
`

const fixtureSnapshot = `{
  "seq": 4,
  "users": {
    "alice": {
      "name": "alice",
      "home_cluster": "turing"
    }
  },
  "credits": {
    "lemieux": 4,
    "turing": 96
  },
  "history": [
    {
      "time": 1.5,
      "job_id": "job-1",
      "app": "synth",
      "server": "lemieux",
      "min_pe": 2,
      "max_pe": 16,
      "price": 16,
      "multiplier": 0.008
    }
  ],
  "revenue": {
    "lemieux": 16
  },
  "spend": {
    "alice": 16
  },
  "runs": {
    "": {
      "job-1": 0
    }
  }
}`

// putUser stages a user profile row. No production path writes one any
// more; the table, and the put_user line, stay in the on-disk format.
func putUser(tx *Tx, r UserRecord) { tx.stage(walRecord{Op: opPutUser, User: &r}) }

// userOf reads a user profile row.
func userOf(d *DB, name string) (UserRecord, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	r, ok := d.data.Users[name]
	return r, ok
}

func writeFixtureOps(t *testing.T, d *DB) {
	t.Helper()
	if err := d.Update(func(tx *Tx) error { putUser(tx, UserRecord{Name: "alice", HomeCluster: "turing"}); return nil }); err != nil {
		t.Fatal(err)
	}
	d.AddCredits("turing", 100)
	if err := d.Update(func(tx *Tx) error {
		tx.AddSpend("alice", 16)
		tx.AddRevenue("lemieux", 16)
		tx.MarkSettled("job-1", "", 0)
		tx.AppendContract(ContractRecord{Time: 1.5, JobID: "job-1", App: "synth", Server: "lemieux", MinPE: 2, MaxPE: 16, Price: 16, Multiplier: 0.008})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.Update(func(tx *Tx) error { return tx.TransferCredits("turing", "lemieux", 4) }); err != nil {
		t.Fatal(err)
	}
}

func checkFixtureState(t *testing.T, d *DB) {
	t.Helper()
	if u, ok := userOf(d, "alice"); !ok || u.HomeCluster != "turing" {
		t.Fatalf("user: %+v, %v", u, ok)
	}
	if a, b := d.Credits("turing"), d.Credits("lemieux"); a != 96 || b != 4 {
		t.Fatalf("credits turing=%v lemieux=%v, want 96 and 4", a, b)
	}
	if d.Spend("alice") != 16 || d.Revenue("lemieux") != 16 || !d.Settled("job-1") || d.HistoryLen() != 1 {
		t.Fatalf("settlement batch: spend=%v revenue=%v settled=%v history=%d",
			d.Spend("alice"), d.Revenue("lemieux"), d.Settled("job-1"), d.HistoryLen())
	}
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// TestOpenFixtureBytes pins the on-disk format across the move to
// internal/jsonl in both directions: the same operations write the same
// WAL and snapshot bytes, and those bytes followed by a torn tail
// recover to the same state and are truncated to the same length.
func TestOpenFixtureBytes(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	writeFixtureOps(t, d)
	if got := readFile(t, walFile(dir)); got != fixtureWAL {
		t.Fatalf("WAL bytes moved:\n%s\nwant:\n%s", got, fixtureWAL)
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, snapshotFile(dir)); got != fixtureSnapshot {
		t.Fatalf("snapshot bytes moved:\n%s\nwant:\n%s", got, fixtureSnapshot)
	}
	if got := readFile(t, walFile(dir)); got != "" {
		t.Fatalf("WAL not truncated by Compact: %q", got)
	}
	d.Close()

	dir = t.TempDir()
	torn := fixtureWAL + `{"seq":5,"op":"add_credits","key":"tur`
	if err := os.WriteFile(walFile(dir), []byte(torn), 0o600); err != nil {
		t.Fatal(err)
	}
	d, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	checkFixtureState(t, d)
	if got := readFile(t, walFile(dir)); got != fixtureWAL {
		t.Fatalf("torn WAL truncated to %d bytes, want the %d intact ones", len(got), len(fixtureWAL))
	}
	// The next record continues the sequence after the intact prefix.
	d.AddCredits("turing", 1)
	if got := readFile(t, walFile(dir)); got != fixtureWAL+`{"seq":5,"op":"add_credits","key":"turing","amount":1}`+"\n" {
		t.Fatalf("append after recovery:\n%s", got)
	}
}

// An old-format state directory: a snapshot whose users and credits came
// in at seq 1, beside a job table, and a WAL that carries a put_job line
// between the settlement batch and the transfer — the bytes the database
// wrote while it still kept job rows.
const (
	oldSnapshot = `{
  "seq": 1,
  "jobs": {
    "job-0": {
      "id": "job-0",
      "owner": "alice",
      "server": "turing",
      "app": "synth",
      "state": "finished",
      "submit_time": 0,
      "start_time": 0.25,
      "finish_time": 1,
      "price": 8,
      "cpu_seconds": 8,
      "home_cluster": "turing"
    }
  },
  "users": {
    "alice": {
      "name": "alice",
      "home_cluster": "turing"
    }
  },
  "credits": {
    "turing": 100
  },
  "history": []
}`
	oldWAL = `{"seq":2,"op":"batch","recs":[{"op":"add_spend","key":"alice","amount":16},{"op":"add_revenue","key":"lemieux","amount":16},{"op":"settled","job_id":"job-1"},{"op":"contract","contract":{"time":1.5,"job_id":"job-1","app":"synth","server":"lemieux","min_pe":2,"max_pe":16,"price":16,"multiplier":0.008}}]}
{"seq":3,"op":"put_job","job":{"id":"job-1","owner":"alice","server":"lemieux","app":"synth","state":"finished","submit_time":0,"start_time":0.5,"finish_time":1.5,"price":16,"cpu_seconds":16,"home_cluster":"turing"}}
{"seq":4,"op":"transfer","key":"turing","to":"lemieux","amount":4}
`
)

// TestOpenOldFormatSkipsJobRows: a directory written while the database
// kept job rows opens with every other record applied — the snapshot's
// jobs key and the WAL's put_job line are skipped, the lines after it
// still replay — and its compaction is the current fixture, byte for byte.
func TestOpenOldFormatSkipsJobRows(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(snapshotFile(dir), []byte(oldSnapshot), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walFile(dir), []byte(oldWAL), 0o600); err != nil {
		t.Fatal(err)
	}
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	checkFixtureState(t, d)
	if got := readFile(t, walFile(dir)); got != oldWAL {
		t.Fatalf("replay cut the old WAL to %d of its %d bytes", len(got), len(oldWAL))
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, snapshotFile(dir)); got != fixtureSnapshot {
		t.Fatalf("old directory compacts to\n%s\nwant:\n%s", got, fixtureSnapshot)
	}
}

// TestOpenSnapshotWithOldSettledMarks: a snapshot written before settled
// marks named the run keeps the settled job IDs, each marked true. It
// opens with each booked as the run of no server and admission 0, which
// a run of admission 0 on any server matches, and compacts to the
// current fixture.
func TestOpenSnapshotWithOldSettledMarks(t *testing.T) {
	dir := t.TempDir()
	runs := "\"runs\": {\n    \"\": {\n      \"job-1\": 0\n    }\n  }"
	old := strings.Replace(fixtureSnapshot, runs, "\"settled\": {\n    \"job-1\": true\n  }", 1)
	if old == fixtureSnapshot {
		t.Fatal("the fixture has no settled runs to write the old way")
	}
	if err := os.WriteFile(snapshotFile(dir), []byte(old), 0o600); err != nil {
		t.Fatal(err)
	}
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	checkFixtureState(t, d)
	if err := d.Update(func(tx *Tx) error {
		if !tx.Settled("job-1", "", 0) || !tx.Settled("job-1", "lemieux", 0) || tx.Settled("job-1", "lemieux", 7) {
			t.Error("the old mark is not the booking of no server and admission 0")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, snapshotFile(dir)); got != fixtureSnapshot {
		t.Fatalf("old marks compact to\n%s\nwant:\n%s", got, fixtureSnapshot)
	}
}
