//go:build !race

package daemon

import (
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"faucets/internal/protocol"
)

// The race detector adds allocations of its own, so the pins stand down
// under -race.

// TestBidDispatchAllocs pins BenchmarkBidDispatch: a bid request from
// the user the connection's last one came from allocates nothing, so two
// users each on their own connection allocate nothing either; two
// alternating on one connection, the three strings that differ.
func TestBidDispatchAllocs(t *testing.T) {
	for _, c := range []struct {
		users, conns int
		max          float64
	}{{1, 1, 0}, {2, 2, 0}, {2, 1, 3}} {
		if got := testing.AllocsPerRun(100, bidDispatchCase(t, c.users, c.conns)); got > c.max {
			t.Errorf("bid arm, requests from %d users on %d connections: %v allocs, want ≤ %v", c.users, c.conns, got, c.max)
		}
	}
}

// TestCommitDispatchAllocs pins BenchmarkCommitDispatch: a warm commit
// carrying a fresh job ID allocates that ID and nothing else — the hold
// is a value in the daemon's table, and the sweeps that keep the table
// bounded cost less than an allocation a commit.
func TestCommitDispatchAllocs(t *testing.T) {
	if got := testing.AllocsPerRun(100, commitDispatchCase(t)); got > 1 {
		t.Errorf("commit arm: %v allocs, want ≤ 1 (the job ID)", got)
	}
}

// TestJournalAppendAllocs pins the journal's write path: once the
// writer's buffers have grown, staging a trip's records — its admission,
// its queued settlement and the settlement's ack — and waiting for each
// to be fsync'd allocates nothing.
func TestJournalAppendAllocs(t *testing.T) {
	d, err := New(durableCfg(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	settle := &protocol.SettleReq{JobID: "job-0123456789abcdef", User: "alice", Server: "turing",
		App: "synth", MinPE: 2, MaxPE: 16, Price: 16.25, CPUSeconds: 2000}
	for _, rec := range []journalRecord{
		{Op: jopJob, JobID: settle.JobID, Owner: "alice", Price: 16.25, Contract: contract(2000)},
		{Op: jopQueue, Settle: settle},
		{Op: jopAck, JobID: settle.JobID},
	} {
		commit := func() {
			d.mu.Lock()
			ticket := d.journalStage(rec)
			d.mu.Unlock()
			if err := d.journalWait(ticket, nil); err != nil {
				t.Fatal(err)
			}
		}
		commit() // grows the buffers
		if got := testing.AllocsPerRun(100, commit); got != 0 {
			t.Errorf("journal stage+wait %q: %v allocs, want 0", rec.Op, got)
		}
	}
}

// TestFlushSettlementsAllocs pins the outbox flush: a warm flush of one
// entry — copied into the flush's own call record, started from it,
// acknowledged, journaled as acked (and fsync'd) and dropped — allocates
// nothing, the pooled exchange and the acknowledging server included.
func TestFlushSettlementsAllocs(t *testing.T) {
	srv := protocol.NewServer("central stub", func(rc *protocol.ReplyConn, f protocol.Frame) error {
		return protocol.WriteFrame(rc, protocol.TypeSettleOK, protocol.SettleOK{})
	}, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()

	cfg := durableCfg(t.TempDir())
	cfg.CentralAddr, cfg.RPCTimeout = l.Addr().String(), 5*time.Second
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// Never started: with no runLoop, this goroutine is the flush's only
	// caller, as runLoop's settle is in a running daemon.
	req := protocol.SettleReq{JobID: "job-0123456789abcdef", User: "alice", Server: "turing",
		App: "synth", MinPE: 2, MaxPE: 16, Price: 16.25, CPUSeconds: 2000}
	flushOne := func() {
		d.mu.Lock()
		d.outbox = append(d.outbox, req)
		d.mu.Unlock()
		d.settle()
	}
	for range 3 {
		flushOne()
	}
	if got := testing.AllocsPerRun(100, flushOne); got != 0 {
		t.Errorf("settle of one entry: %v allocs, want 0", got)
	}
	if n, acked := d.OutboxLen(), d.met.settleAcked.Value(); n != 0 || acked != 104 {
		t.Fatalf("outbox %d, acked %d: want 0 and 104 (every flush acked)", n, acked)
	}
}

// TestWakeTimerAllocs pins the run loop's re-arm: arming the timer and
// disarming it allocate nothing.
func TestWakeTimerAllocs(t *testing.T) {
	var wg sync.WaitGroup
	w, err := newWakeTimer(&wg)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if got := testing.AllocsPerRun(100, func() {
		w.Reset(time.Hour)
		w.Stop()
	}); got != 0 {
		t.Errorf("wake timer Reset+Stop: %v allocs, want 0", got)
	}
}

// TestSubmitDispatchAllocs pins the submit arm: what an admitted job
// keeps — its ID, its contract, its *job.Job, its staging area — and the
// deferred reply's hand-off, the tables' growth amortised.
func TestSubmitDispatchAllocs(t *testing.T) {
	if got := testing.AllocsPerRun(200, submitDispatchCase(t, 201)); got > 6 {
		t.Errorf("submit arm: %v allocs, want ≤ 6", got)
	}
	// ≈980 B, most of it the admission and its tables' growth. A closure
	// over the reply and a boxed SubmitOK added ≈95 B.
	if got := bytesPerRun(1000, submitDispatchCase(t, 1001)); got > 1030 {
		t.Errorf("submit arm: %d B a run, want ≤ 1030", got)
	}
}

// bytesPerRun is what f allocates a call over runs calls after one to
// warm it, as testing.Benchmark's B/op counts it but over a fixed number
// of runs: a dispatch case prepares one frame a run.
func bytesPerRun(runs int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}
