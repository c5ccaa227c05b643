package db

import (
	"os"
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
  "jobs": {},
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
  "settled": {
    "job-1": true
  }
}`

func writeFixtureOps(t *testing.T, d *DB) {
	t.Helper()
	d.PutUser(UserRecord{Name: "alice", HomeCluster: "turing"})
	d.AddCredits("turing", 100)
	d.BeginBatch()
	d.AddSpend("alice", 16)
	d.AddRevenue("lemieux", 16)
	d.MarkSettled("job-1")
	d.AppendContract(ContractRecord{Time: 1.5, JobID: "job-1", App: "synth", Server: "lemieux", MinPE: 2, MaxPE: 16, Price: 16, Multiplier: 0.008})
	if err := d.CommitBatch(); err != nil {
		t.Fatal(err)
	}
	if err := d.TransferCredits("turing", "lemieux", 4); err != nil {
		t.Fatal(err)
	}
}

func checkFixtureState(t *testing.T, d *DB) {
	t.Helper()
	if u, err := d.GetUser("alice"); err != nil || u.HomeCluster != "turing" {
		t.Fatalf("user: %+v, %v", u, err)
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
