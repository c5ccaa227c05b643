package daemon

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"faucets/internal/protocol"
	"faucets/internal/qos"
)

// journalSeed builds a realistic journal byte stream: two admitted jobs,
// one finished into the outbox, one settlement acknowledged.
func journalSeed(f *testing.F) []byte {
	dir := f.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	jnl, _, err := openJournal(path)
	if err != nil {
		f.Fatal(err)
	}
	c := &qos.Contract{App: "synth", Work: 100, MinPE: 1, MaxPE: 4, Deadline: 100}
	for _, rec := range []journalRecord{
		{Op: jopJob, JobID: "job-a", Owner: "ana", Price: 2, Contract: c},
		{Op: jopJob, JobID: "job-b", Owner: "bob", Price: 3, Contract: c},
		{Op: jopQueue, Settle: &protocol.SettleReq{JobID: "job-a", User: "ana", Server: "turing", Price: 2}},
		{Op: jopAck, JobID: "job-a"},
	} {
		if err := appendRecord(jnl, rec); err != nil {
			f.Fatal(err)
		}
	}
	jnl.Close()
	blob, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return blob
}

// stateFingerprint renders the reduced journal state deterministically.
func stateFingerprint(t *testing.T, st recoveredState) string {
	t.Helper()
	blob, err := json.Marshal(st.liveRecords())
	if err != nil {
		t.Fatalf("fingerprint: %v", err)
	}
	return string(blob)
}

// FuzzJournalRecovery throws arbitrary bytes at the daemon journal:
// recovery must never panic, must drop only the torn tail, must never
// queue the same settlement twice (the double-charge guard), and the
// compacted rewrite must reduce back to the identical live state.
func FuzzJournalRecovery(f *testing.F) {
	seed := journalSeed(f)
	f.Add(seed)
	// Torn tail from a crash mid-append.
	f.Add(append(append([]byte{}, seed...), []byte(`{"op":"queue","settle":{"job_id":"job-`)...))
	// Duplicate queue records for one job (outbox redelivery across a
	// crash): reduce must keep a single settlement.
	f.Add([]byte(`{"op":"queue","settle":{"job_id":"j1"}}` + "\n" + `{"op":"queue","settle":{"job_id":"j1"}}` + "\n"))
	// Ack without a matching queue, job without a contract, empty ops.
	f.Add([]byte(`{"op":"ack","job_id":"ghost"}` + "\n" + `{"op":"job","job_id":"no-contract"}` + "\n" + `{"op":""}` + "\n"))
	f.Add([]byte(nil))
	f.Add([]byte("\n\n\n"))
	// Two runs of one job ID, each record naming its admission: the
	// first run's ack retires its own settlement only.
	f.Add([]byte(`{"op":"queue","settle":{"job_id":"j1","admission":7}}` + "\n" +
		`{"op":"job","job_id":"j1","owner":"ana","contract":{"app":"synth","min_pe":1,"max_pe":4,"work":100},"admission":9}` + "\n" +
		`{"op":"queue","settle":{"job_id":"j1","admission":9}}` + "\n" + `{"op":"ack","job_id":"j1","admission":7}` + "\n"))
	// A run admitted while an earlier run's settlement is still queued:
	// the rewrite lists the admission before that settlement, which must
	// not close it.
	f.Add([]byte(`{"op":"queue","settle":{"job_id":"j1","admission":7}}` + "\n" +
		`{"op":"job","job_id":"j1","owner":"ana","contract":{"app":"synth","min_pe":1,"max_pe":4,"work":100},"admission":9}` + "\n"))
	// Written before admission numbers: a job, its queue and its ack
	// name none, and read as admission 0.
	f.Add([]byte(`{"op":"job","job_id":"j2","owner":"ana","contract":{"app":"synth","min_pe":1,"max_pe":4,"work":100}}` + "\n" +
		`{"op":"queue","settle":{"job_id":"j2","user":"ana","server":"turing","price":2}}` + "\n" + `{"op":"ack","job_id":"j2"}` + "\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "journal.jsonl")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		jnl, recs, err := openJournal(path)
		if err != nil {
			return // rejected input is fine; panicking is not
		}
		st := reduce(recs)

		// A run — a job ID and its admission number — may carry at most
		// one queued settlement, whatever the journal claimed: redelivering
		// one twice double-charges.
		type run struct {
			id  string
			num uint64
		}
		seen := map[run]bool{}
		for _, req := range st.queued {
			if seen[run{req.JobID, req.Admission}] {
				t.Fatalf("job %s admission %d queued for settlement twice", req.JobID, req.Admission)
			}
			seen[run{req.JobID, req.Admission}] = true
		}
		// Pending jobs must all carry contracts (recovery resubmits them).
		for id, rec := range st.pending {
			if rec.Contract == nil {
				t.Fatalf("pending job %s has no contract", id)
			}
		}

		// Compact and replay: the rewritten journal must reduce to the
		// same live state (rewrite is exactly what recovery and shutdown
		// do).
		want := stateFingerprint(t, st)
		if err := jnl.Rewrite(st.liveRecords()...); err != nil {
			t.Fatalf("rewrite: %v", err)
		}
		jnl.Close()
		jnl2, recs2, err := openJournal(path)
		if err != nil {
			t.Fatalf("reopen compacted journal: %v", err)
		}
		defer jnl2.Close()
		if got := stateFingerprint(t, reduce(recs2)); got != want {
			t.Fatalf("state drifted across compaction:\n got %s\nwant %s", got, want)
		}
	})
}
