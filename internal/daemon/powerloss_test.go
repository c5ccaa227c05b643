package daemon

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"faucets/internal/jsonl"
	"faucets/internal/protocol"
)

// powerCut stands in for the disk under every log opened while it is
// installed: writes reach the file, and cut truncates each file back to
// what its last Sync covered — all a host that loses power keeps.
type powerCut struct {
	mu   sync.Mutex
	open map[string]*cutFile // the newest file opened at each path
}

type cutFile struct {
	*os.File
	p            *powerCut
	size, synced int64
}

func (f *cutFile) Write(b []byte) (int, error) {
	n, err := f.File.Write(b)
	f.p.mu.Lock()
	f.size += int64(n)
	f.p.mu.Unlock()
	return n, err
}

func (f *cutFile) Sync() error {
	err := f.File.Sync()
	if err == nil {
		f.p.mu.Lock()
		f.synced = f.size
		f.p.mu.Unlock()
	}
	return err
}

// installPowerCut makes every log opened until the test ends a cutFile.
// What a file holds when it is opened is taken as on disk: a Rewrite
// syncs it first, and recovery opens what the last cut left.
func installPowerCut(t *testing.T) *powerCut {
	p := &powerCut{open: map[string]*cutFile{}}
	open := jsonl.OpenFile
	jsonl.OpenFile = func(path string) (jsonl.File, error) {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
		if err != nil {
			return nil, err
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, err
		}
		cf := &cutFile{File: f, p: p, size: fi.Size(), synced: fi.Size()}
		p.mu.Lock()
		p.open[path] = cf
		p.mu.Unlock()
		return cf, nil
	}
	t.Cleanup(func() { jsonl.OpenFile = open })
	return p
}

// cut drops every byte written since each file's last Sync.
func (p *powerCut) cut(t *testing.T) {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	for path, f := range p.open {
		if err := os.Truncate(path, f.synced); err != nil {
			t.Fatal(err)
		}
	}
}

// restart boots a daemon from dir's journal, as the host would after the
// power came back; the one that was running is abandoned, never closed.
func restart(t *testing.T, dir string) (*Daemon, net.Conn) {
	t.Helper()
	d, addr := startDaemon(t, durableCfg(dir))
	return d, dial(t, addr)
}

// TestAckedRecordsSurvivePowerLoss: a reply is never written on the
// strength of a journal record that is not fsync'd. After SubmitOK the
// admission survives a power cut, and after KillOK so does the kill —
// including a kill of a job whose admission was already on disk.
func TestAckedRecordsSurvivePowerLoss(t *testing.T) {
	p := installPowerCut(t)
	dir := t.TempDir()
	d, conn := restart(t, dir)
	var sub protocol.SubmitOK
	for _, id := range []string{"kept", "killed"} {
		commitJob(t, d, "alice", id, 1)
		if err := protocol.Call(conn, protocol.TypeSubmitReq, protocol.SubmitReq{User: "alice", JobID: id, Contract: contract(1e7)}, protocol.TypeSubmitOK, &sub); err != nil {
			t.Fatal(err)
		}
	}
	p.cut(t)
	_, conn = restart(t, dir)
	for _, id := range []string{"kept", "killed"} {
		if !tracked(t, conn, id) {
			t.Fatalf("job %s lost to a power cut after its SubmitOK was sent", id)
		}
	}

	var kill protocol.KillOK
	if err := protocol.Call(conn, protocol.TypeKillReq, protocol.KillReq{User: "alice", JobID: "killed"}, protocol.TypeKillOK, &kill); err != nil {
		t.Fatal(err)
	}
	p.cut(t)
	_, conn = restart(t, dir)
	if tracked(t, conn, "killed") {
		t.Fatal("job back after a power cut, though its KillOK was sent")
	}
	if !tracked(t, conn, "kept") {
		t.Fatal("job lost to the second power cut")
	}
}

// TestJournalFailedFlushRepairedBeforeReply: a journal flush that fails
// half written does not cost the reply — the journal is rewritten from
// live state and SubmitOK follows — and the file then replays to exactly
// the daemon's live state. If the rewrite fails too, the reply is a
// retryable error, and a retry once the disk is back is acknowledged.
func TestJournalFailedFlushRepairedBeforeReply(t *testing.T) {
	dir := t.TempDir()
	d, conn := restart(t, dir)
	submit := func(id string) error {
		commitJob(t, d, "alice", id, 1)
		var sub protocol.SubmitOK
		return protocol.Call(conn, protocol.TypeSubmitReq, protocol.SubmitReq{User: "alice", JobID: id, Contract: contract(1e7)}, protocol.TypeSubmitOK, &sub)
	}
	if err := submit("before"); err != nil {
		t.Fatal(err)
	}
	d.journal.FailWrites(1, errors.New("disk full"))
	if err := submit("torn"); err != nil {
		t.Fatalf("submit over a failed flush: %v, want it repaired and acknowledged", err)
	}
	if err := submit("after"); err != nil {
		t.Fatal(err)
	}
	if err := d.journal.Broken(); err != nil {
		t.Fatalf("journal still broken after the reply: %v", err)
	}
	d.mu.Lock()
	live := stateOf(t, d)
	d.mu.Unlock()
	copyDir := t.TempDir()
	blob, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(copyDir, "journal.jsonl"), blob, 0o600); err != nil {
		t.Fatal(err)
	}
	jnl, recs, err := openJournal(filepath.Join(copyDir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	jnl.Close()
	if got := stateFingerprint(t, reduce(recs)); got != live {
		t.Fatalf("journal replays to\n%s\nlive state is\n%s", got, live)
	}

	// The disk goes away: the flush fails and so does the repair.
	d.journal.FailWrites(1, errors.New("disk gone"))
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	err = submit("homeless")
	if !protocol.IsRetryable(err) {
		t.Fatalf("submit with neither flush nor repair possible: %v, want a retryable error", err)
	}
	if err := os.MkdirAll(dir, 0o700); err != nil {
		t.Fatal(err)
	}
	if err := submit("homeless"); err != nil {
		t.Fatalf("retried submit once the disk is back: %v", err)
	}
	d2, _ := restart(t, dir)
	d2.mu.Lock()
	recovered := len(d2.jobs) // runLoop writes d.jobs once it runs
	d2.mu.Unlock()
	if recovered != 4 {
		t.Fatalf("recovered %d jobs from the repaired journal, want 4", recovered)
	}
}

// stateOf renders the daemon's live state as its journal would replay it.
// Caller holds d.mu.
func stateOf(t *testing.T, d *Daemon) string {
	st := recoveredState{pending: map[string]journalRecord{}, queued: d.outbox}
	for id, a := range d.jobs {
		if !a.settled && !a.j.State().Terminal() {
			st.pending[id] = journalRecord{Op: jopJob, JobID: id, Owner: a.j.Owner, Price: a.price, Contract: a.j.Contract, Admission: a.num}
		}
	}
	return stateFingerprint(t, st)
}
