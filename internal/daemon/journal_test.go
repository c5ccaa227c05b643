package daemon

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"faucets/internal/bidding"
	"faucets/internal/job"
	"faucets/internal/jsonl"
	"faucets/internal/protocol"
	"faucets/internal/scheduler"
	"faucets/internal/server"
)

// durableCfg builds a daemon config journaling under dir.
func durableCfg(dir string) Config {
	info := protocol.ServerInfo{Spec: spec("turing", 64), Apps: []string{"synth"}}
	return Config{
		Info:      info,
		Scheduler: scheduler.NewEquipartition(info.Spec, scheduler.Config{}),
		TimeScale: 1000,
		StateDir:  dir,
	}
}

// TestJournalRecoveryRestartsUnfinishedJob: a job admitted before a
// crash must be running again after recovery, with its owner, contract,
// and agreed price intact.
func TestJournalRecoveryRestartsUnfinishedJob(t *testing.T) {
	dir := t.TempDir()
	d, err := New(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	commitJob(t, d, "alice", "j-recover", 7)
	if err := d.submit(protocol.SubmitReq{User: "alice", JobID: "j-recover", Contract: contract(5000)}); err != nil {
		t.Fatal(err)
	}
	// Crash: the daemon is abandoned without Close. The journal already
	// holds the admission record.
	d2, err := New(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	j, ok := jobOf(d2, "j-recover")
	if !ok {
		t.Fatal("job lost across restart")
	}
	if j.Contract.Work != 5000 || j.Contract.App != "synth" {
		t.Fatalf("contract mangled: %+v", j.Contract)
	}
	d2.mu.Lock()
	a, queued := d2.jobs["j-recover"], queuedLocked(d2)
	d2.mu.Unlock()
	if a.j.Owner != "alice" || a.price != 7 {
		t.Fatalf("owner=%q price=%v, want alice/7", a.j.Owner, a.price)
	}
	if queued != 5000 {
		t.Fatalf("queued=%v, want 5000", queued)
	}
	if a.tmp == 0 {
		t.Fatal("recovered job has no temporary userid")
	}
}

// TestJournalKilledJobNotRecovered: "done" is terminal — a killed job
// must not rise from the journal.
func TestJournalKilledJobNotRecovered(t *testing.T) {
	dir := t.TempDir()
	d, err := New(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	commitJob(t, d, "alice", "j-kill", 1)
	if err := d.submit(protocol.SubmitReq{User: "alice", JobID: "j-kill", Contract: contract(5000)}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.kill(protocol.KillReq{User: "alice", JobID: "j-kill"}); err != nil {
		t.Fatal(err)
	}
	d2, err := New(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := jobOf(d2, "j-kill"); ok {
		t.Fatal("killed job resubmitted on recovery")
	}
}

// TestJournalTornTailTolerated: a crash mid-append leaves a torn final
// line; recovery must keep the intact prefix and truncate the rest.
func TestJournalTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	intact := `{"op":"job","job_id":"j-1","owner":"alice","contract":{"app":"synth","min_pe":2,"max_pe":16,"work":100}}` + "\n"
	if err := os.WriteFile(path, []byte(intact+`{"op":"queue","settle":{"job_`), 0o600); err != nil {
		t.Fatal(err)
	}
	jnl, recs, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	if len(recs) != 1 || recs[0].JobID != "j-1" {
		t.Fatalf("recs=%+v, want the one intact record", recs)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != intact {
		t.Fatalf("torn tail not truncated: %q", blob)
	}
}

// appendRecord stages rec and waits until it is on disk, as the reply
// paths do; a record that cannot be encoded returns the error unwritten.
func appendRecord(w *jsonl.Writer, rec journalRecord) error {
	t, err := w.Stage(&rec)
	if err != nil {
		return err
	}
	return w.Wait(t)
}

// switchCentral acks register/verify always; settlements are dropped at
// the transport level (connection severed) until deliver is set, then
// acknowledged and counted.
func switchCentral(t *testing.T, deliver *atomic.Bool, settled *atomic.Int32) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				rc := protocol.NewReplyConn(conn)
				for {
					f, err := protocol.ReadFrame(conn)
					if err != nil {
						return
					}
					rc.SetID(f.ID)
					switch f.Type {
					case protocol.TypeRegisterReq:
						_ = protocol.WriteFrame(rc, protocol.TypeRegisterOK, protocol.RegisterOK{})
					case protocol.TypeVerifyReq:
						_ = protocol.WriteFrame(rc, protocol.TypeVerifyOK, protocol.VerifyOK{})
					case protocol.TypeSettleReq:
						if !deliver.Load() {
							return // sever: transport failure keeps it queued
						}
						settled.Add(1)
						_ = protocol.WriteFrame(rc, protocol.TypeSettleOK, protocol.SettleOK{})
					default:
						_ = protocol.WriteErrorFrom(rc, errors.New("stub: "+f.Type))
					}
				}
			}()
		}
	}()
	return l.Addr().String()
}

// TestJournalOutboxSurvivesRestart: a settlement queued while the
// Central Server is unreachable must still be delivered by a RESTARTED
// daemon — the outbox is journaled, not just in memory.
func TestJournalOutboxSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	var deliver atomic.Bool
	var settled atomic.Int32
	addr := switchCentral(t, &deliver, &settled)

	cfg := durableCfg(dir)
	cfg.CentralAddr = addr
	cfg.RPCTimeout = 500 * time.Millisecond
	cfg.SettleRetry = 20 * time.Millisecond
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(l); err != nil {
		t.Fatal(err)
	}
	conn := dial(t, l.Addr().String())
	runJobOverWire(t, conn, "j-outbox", "tok", 100)
	deadline := time.Now().Add(10 * time.Second)
	for d.OutboxLen() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("settlement never queued")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Stop the daemon with the settlement still undeliverable; the final
	// flush fails and the compacted journal must carry the queue record.
	d.Close()
	if settled.Load() != 0 {
		t.Fatal("settlement delivered while the stub was severing connections")
	}

	deliver.Store(true)
	cfg2 := durableCfg(dir)
	cfg2.CentralAddr = addr
	cfg2.RPCTimeout = 500 * time.Millisecond
	cfg2.SettleRetry = 20 * time.Millisecond
	d2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if got := d2.OutboxLen(); got != 1 {
		t.Fatalf("recovered outbox=%d, want 1", got)
	}
	l2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.Start(l2); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for settled.Load() == 0 || d2.OutboxLen() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("settled=%d outbox=%d: journaled settlement never redelivered", settled.Load(), d2.OutboxLen())
		}
		time.Sleep(5 * time.Millisecond)
	}
	d2.Close()
	// After the ack and the final compaction nothing live remains.
	_, recs, err := openJournal(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if live := reduce(recs); len(live.pending) != 0 || len(live.queued) != 0 {
		t.Fatalf("journal still live after ack: %+v", live)
	}
}

// TestCommitAndSubmitIdempotent: a client retrying after a lost ack must
// be re-acknowledged, not refused — but a different user colliding on
// the same job ID is still an error.
func TestCommitAndSubmitIdempotent(t *testing.T) {
	d, err := New(durableCfg(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	commit := func(user string) error {
		return d.commit(&protocol.CommitReq{User: user, JobID: "j-idem", Bid: bidding.Bid{Price: 3}})
	}
	if err := commit("alice"); err != nil {
		t.Fatal(err)
	}
	if err := commit("alice"); err != nil {
		t.Fatalf("retried commit refused: %v", err)
	}
	if err := commit("mallory"); !errors.Is(err, server.ErrNotOwner) {
		t.Fatalf("foreign commit on a reserved job: %v, want server.ErrNotOwner", err)
	}
	req := protocol.SubmitReq{User: "alice", JobID: "j-idem", Contract: contract(5000)}
	if err := d.submit(req); err != nil {
		t.Fatal(err)
	}
	if err := d.submit(req); err != nil {
		t.Fatalf("retried submit refused: %v", err)
	}
	if err := commit("alice"); err != nil {
		t.Fatalf("commit retry after submit refused: %v", err)
	}
	foreign := req
	foreign.User = "mallory"
	if err := d.submit(foreign); !errors.Is(err, server.ErrNotOwner) {
		t.Fatalf("foreign submit on a running job: %v, want server.ErrNotOwner", err)
	}
	d.mu.Lock()
	queued := queuedLocked(d)
	d.mu.Unlock()
	if queued != 5000 {
		t.Fatalf("queued=%v after retries, want 5000 (double-counted)", queued)
	}
}

// TestRecoveryKeepsUnplacedAdmission: a job recovery cannot place (the
// cluster shrank below its minimum) is still owed. Its admission must
// outlive the recovery's and Close's rewrites, so a boot on the full
// cluster runs it.
func TestRecoveryKeepsUnplacedAdmission(t *testing.T) {
	dir := t.TempDir()
	d, err := New(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	commitJob(t, d, "alice", "j-wide", 1)
	if err := d.submit(protocol.SubmitReq{User: "alice", JobID: "j-wide", Contract: contract(5000)}); err != nil {
		t.Fatal(err)
	}

	small := durableCfg(dir)
	small.Info.Spec = spec("turing", 1)
	small.Scheduler = scheduler.NewEquipartition(small.Info.Spec, scheduler.Config{})
	d2, err := New(small)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := jobOf(d2, "j-wide"); ok {
		t.Fatal("a 1-PE cluster placed a job that needs 2")
	}
	d2.Close()
	_, recs, err := openJournal(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if rec, ok := reduce(recs).pending["j-wide"]; !ok || rec.Owner != "alice" {
		t.Fatalf("journal after the small boot: %+v; the unplaced admission is gone", recs)
	}

	d3, err := New(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := jobOf(d3, "j-wide"); !ok {
		t.Fatal("the full cluster did not recover the job the small one could not place")
	}
}

// jobOf is the daemon's job table entry for id, read under its lock: these
// tests open daemons they never start, so no status call can ask.
func jobOf(d *Daemon, id string) (*job.Job, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	a, ok := d.jobs[id]
	return a.j, ok
}

// TestJournalKeptFromPredecessorsSecondClose: only a daemon's first
// Close compacts its journal. Closing it again once a successor has
// opened the state directory and admitted a job must leave the
// successor's journal whole: a crash of the successor recovers the job.
func TestJournalKeptFromPredecessorsSecondClose(t *testing.T) {
	dir := t.TempDir()
	a, err := New(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	a.Close()
	b, err := New(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	commitJob(t, b, "alice", "y", 1)
	if err := b.submit(protocol.SubmitReq{User: "alice", JobID: "y", Contract: contract(5000)}); err != nil {
		t.Fatal(err)
	}
	a.Close()
	c, err := New(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, ok := jobOf(c, "y"); !ok {
		t.Fatal("the predecessor's second Close rewrote y out of the journal")
	}
}
