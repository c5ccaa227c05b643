package daemon

import (
	"os"
	"path/filepath"
	"testing"

	"faucets/internal/protocol"
)

// fixtureJournal is the literal bytes the commit before internal/jsonl
// appended for the records in TestNewFixtureBytes; fixtureCompacted is
// what its recovery rewrote them to.
const fixtureJournal = `{"op":"job","job_id":"job-a","owner":"alice","price":20,"contract":{"app":"synth","min_pe":2,"max_pe":16,"work":10000000,"payoff":{}}}
{"op":"job","job_id":"job-b","owner":"bob","price":16,"contract":{"app":"synth","min_pe":2,"max_pe":16,"work":2000,"payoff":{}}}
{"op":"job","job_id":"job-c","owner":"bob","price":8,"contract":{"app":"synth","min_pe":2,"max_pe":16,"work":1000,"payoff":{}}}
{"op":"queue","settle":{"job_id":"job-b","user":"bob","server":"turing","app":"synth","min_pe":2,"max_pe":16,"price":16,"cpu_seconds":2000}}
{"op":"queue","settle":{"job_id":"job-c","user":"bob","server":"turing","app":"synth","min_pe":2,"max_pe":16,"price":8,"cpu_seconds":1000}}
{"op":"ack","job_id":"job-c"}
`

const fixtureCompacted = `{"op":"job","job_id":"job-a","owner":"alice","price":20,"contract":{"app":"synth","min_pe":2,"max_pe":16,"work":10000000,"payoff":{}}}
{"op":"queue","settle":{"job_id":"job-b","user":"bob","server":"turing","app":"synth","min_pe":2,"max_pe":16,"price":16,"cpu_seconds":2000}}
`

func readJournal(t *testing.T, path string) string {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// TestNewFixtureBytes pins the journal's on-disk format across the move
// to internal/jsonl in both directions: the same records append the same
// bytes, and those bytes followed by a torn tail are truncated to the
// same length, recover to the same daemon and compact to the same file.
func TestNewFixtureBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, recs, err := openJournal(path)
	if err != nil || len(recs) != 0 {
		t.Fatalf("fresh journal: %d records, %v", len(recs), err)
	}
	settle := func(id string, price, cpu float64) *protocol.SettleReq {
		return &protocol.SettleReq{JobID: id, User: "bob", Server: "turing", App: "synth", MinPE: 2, MaxPE: 16, Price: price, CPUSeconds: cpu}
	}
	for _, rec := range []journalRecord{
		{Op: jopJob, JobID: "job-a", Owner: "alice", Price: 20, Contract: contract(1e7)},
		{Op: jopJob, JobID: "job-b", Owner: "bob", Price: 16, Contract: contract(2000)},
		{Op: jopJob, JobID: "job-c", Owner: "bob", Price: 8, Contract: contract(1000)},
		{Op: jopQueue, Settle: settle("job-b", 16, 2000)},
		{Op: jopQueue, Settle: settle("job-c", 8, 1000)},
		{Op: jopAck, JobID: "job-c"},
	} {
		if err := appendRecord(j, rec); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	if got := readJournal(t, path); got != fixtureJournal {
		t.Fatalf("journal bytes moved:\n%s\nwant:\n%s", got, fixtureJournal)
	}

	dir := t.TempDir()
	path = filepath.Join(dir, "journal.jsonl")
	torn := fixtureJournal + `{"op":"job","job_id":"job-d","own`
	if err := os.WriteFile(path, []byte(torn), 0o600); err != nil {
		t.Fatal(err)
	}
	j, recs, err = openJournal(path)
	if err != nil || len(recs) != 6 {
		t.Fatalf("torn journal: %d records, %v; want the 6 intact ones", len(recs), err)
	}
	j.Close()
	if got := readJournal(t, path); got != fixtureJournal {
		t.Fatalf("torn journal truncated to %d bytes, want the %d intact ones", len(got), len(fixtureJournal))
	}

	if err := os.WriteFile(path, []byte(torn), 0o600); err != nil {
		t.Fatal(err)
	}
	d, err := New(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	if jb, ok := jobOf(d, "job-a"); !ok || jb.Contract.Work != 1e7 {
		t.Fatalf("unfinished job not recovered: %+v", jb)
	}
	for _, id := range []string{"job-b", "job-c", "job-d"} {
		if _, ok := jobOf(d, id); ok {
			t.Fatalf("%s restarted: it was finished, acknowledged or torn", id)
		}
	}
	d.mu.Lock()
	owner, price, outbox := d.jobs["job-a"].j.Owner, d.jobs["job-a"].price, append([]protocol.SettleReq(nil), d.outbox...)
	d.mu.Unlock()
	if owner != "alice" || price != 20 || len(outbox) != 1 || outbox[0] != *settle("job-b", 16, 2000) {
		t.Fatalf("recovered owner=%q price=%v outbox=%+v", owner, price, outbox)
	}
	if got := readJournal(t, path); got != fixtureCompacted {
		t.Fatalf("compacted journal moved:\n%s\nwant:\n%s", got, fixtureCompacted)
	}
}
