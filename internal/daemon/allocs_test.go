//go:build !race

package daemon

import (
	"net"
	"testing"
	"time"

	"faucets/internal/protocol"
)

// The race detector adds allocations of its own, so the pins stand down
// under -race.

// TestBidDispatchAllocs pins BenchmarkBidDispatch: a bid request from
// the user the last one came from allocates nothing; alternating between
// two users, the three strings that differ.
func TestBidDispatchAllocs(t *testing.T) {
	for _, c := range []struct {
		users int
		max   float64
	}{{1, 0}, {2, 3}} {
		if got := testing.AllocsPerRun(100, bidDispatchCase(t, c.users)); got > c.max {
			t.Errorf("bid arm, requests from %d users: %v allocs, want ≤ %v", c.users, got, c.max)
		}
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
// entry — copied into the flush's own slice, sent from it, acknowledged,
// journaled as acked (and fsync'd) and dropped — allocates nothing, the
// pooled exchange and the acknowledging server included.
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
