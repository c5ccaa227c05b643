package daemon

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"faucets/internal/accounting"
	"faucets/internal/central"
	"faucets/internal/protocol"
)

// runJobOverWire drives bid → commit → submit for one job through the
// daemon's wire protocol and returns once the submit is acknowledged.
func runJobOverWire(t *testing.T, conn net.Conn, jobID, token string, work float64) {
	t.Helper()
	c := contract(work)
	var bid protocol.BidOK
	if err := protocol.Call(conn, protocol.TypeBidReq, protocol.BidReq{User: "alice", Token: token, Contract: c}, protocol.TypeBidOK, &bid); err != nil {
		t.Fatal(err)
	}
	var commit protocol.CommitOK
	if err := protocol.Call(conn, protocol.TypeCommitReq, protocol.CommitReq{User: "alice", Token: token, JobID: jobID, Bid: bid.Bid}, protocol.TypeCommitOK, &commit); err != nil {
		t.Fatal(err)
	}
	var sub protocol.SubmitOK
	if err := protocol.Call(conn, protocol.TypeSubmitReq, protocol.SubmitReq{User: "alice", Token: token, JobID: jobID, Contract: c}, protocol.TypeSubmitOK, &sub); err != nil {
		t.Fatal(err)
	}
}

// TestSettlementOutboxSurvivesCentralOutage: a settlement issued while
// the Central Server is down must be queued and redelivered once a
// server is listening again — the billing record may be late, never
// lost.
func TestSettlementOutboxSurvivesCentralOutage(t *testing.T) {
	fs := central.New(accounting.Dollars)
	if err := fs.Auth.AddUser("alice", "pw", ""); err != nil {
		t.Fatal(err)
	}
	fsl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fsAddr := fsl.Addr().String()
	go fs.Serve(fsl)

	d, addr := startDaemon(t, Config{
		CentralAddr: fsAddr,
		RPCTimeout:  500 * time.Millisecond,
		SettleRetry: 20 * time.Millisecond,
	})
	token, err := fs.Auth.Login("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	conn := dial(t, addr)
	// ~125 virtual seconds on 16 PEs = ~125ms wall at timescale 1000:
	// enough room to take the Central Server down before the finish.
	runJobOverWire(t, conn, "j-outage", token, 2000)
	fs.Close()

	// The job finishes against a dead Central Server: the settlement
	// must land in the outbox, not vanish.
	deadline := time.Now().Add(10 * time.Second)
	for d.OutboxLen() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("settlement never queued while the central server was down")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if fs.DB.HistoryLen() != 0 {
		t.Fatal("settlement landed on a closed server?")
	}

	// A fresh Central Server comes back on the same address; the
	// daemon's redelivery loop must find it without any nudge.
	fs2 := central.New(accounting.Dollars)
	defer fs2.Close()
	fsl2, err := net.Listen("tcp", fsAddr)
	if err != nil {
		t.Fatal(err)
	}
	go fs2.Serve(fsl2)

	deadline = time.Now().Add(10 * time.Second)
	for fs2.DB.HistoryLen() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("queued settlement never delivered after the central server returned")
		}
		time.Sleep(5 * time.Millisecond)
	}
	recs := fs2.DB.RecentContracts(nil, 1)
	if r := recs[0]; r.JobID != "j-outage" || r.App != "synth" || r.MinPE != 2 || r.MaxPE != 16 {
		t.Fatalf("redelivered record lost its contract shape: %+v", r)
	}
	deadline = time.Now().Add(5 * time.Second)
	for d.OutboxLen() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("outbox still holds %d records after acknowledgement", d.OutboxLen())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stubCentral speaks just enough of the FS protocol for a daemon to
// register and verify, and refuses (or counts) settlements.
func stubCentral(t *testing.T, refuseSettle bool, settled *atomic.Int32) string {
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
						if refuseSettle {
							_ = protocol.WriteErrorFrom(rc, errors.New("no such account"))
							continue
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

// TestSettlementRefusedIsDroppedNotRetried: a settlement the Central
// Server received and refused must leave the outbox — redelivering it
// unchanged can never succeed and would poison the queue forever.
func TestSettlementRefusedIsDroppedNotRetried(t *testing.T) {
	var settled atomic.Int32
	addr := stubCentral(t, true, &settled)
	d, daddr := startDaemon(t, Config{
		CentralAddr: addr,
		RPCTimeout:  500 * time.Millisecond,
		SettleRetry: 20 * time.Millisecond,
	})
	conn := dial(t, daddr)
	runJobOverWire(t, conn, "j-poison", "tok", 100)

	// Wait for the job to finish, then for the refusal to drain the
	// outbox without any successful settle. The outbox is also empty
	// between a status read finding the job finished and the run loop
	// queueing its settlement, so the drop itself is what is waited for.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st protocol.StatusOK
		if err := protocol.Call(conn, protocol.TypeStatusReq, protocol.StatusReq{JobID: "j-poison"}, protocol.TypeStatusOK, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == "finished" && d.OutboxLen() == 0 && d.met.outboxPoison.Value() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("state=%s outbox=%d: refused settlement never dropped", st.State, d.OutboxLen())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if settled.Load() != 0 {
		t.Fatal("stub accepted a settlement it was meant to refuse")
	}
	if got := d.met.outboxPoison.Value(); got != 1 {
		t.Fatalf("poison counter = %d, want 1 for the dropped settlement", got)
	}
}

// TestLongOutboxDrainsInBoundedPasses: a flush puts at most
// maxSettleFlight settlements in flight — an outbox that grew through a
// Central Server outage does not turn into one goroutine per entry — and
// every one of them; the rest go out on the following passes, each
// delivered once.
func TestLongOutboxDrainsInBoundedPasses(t *testing.T) {
	var delivered, inflight, most atomic.Int64
	srv := protocol.NewServer("central stub", func(rc *protocol.ReplyConn, f protocol.Frame) error {
		now := inflight.Add(1)
		for m := most.Load(); now > m && !most.CompareAndSwap(m, now); m = most.Load() {
		}
		r := rc.Defer()
		go func() {
			time.Sleep(time.Millisecond) // hold the answer, so requests overlap
			delivered.Add(1)
			inflight.Add(-1)
			r.Finish(protocol.TypeSettleOK, protocol.SettleOK{}, nil)
		}()
		return nil
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
	// Never started: this goroutine is the flush's only caller.
	const entries = 2*maxSettleFlight + 100
	d.mu.Lock()
	for i := range entries {
		d.outbox = append(d.outbox, protocol.SettleReq{JobID: fmt.Sprintf("j-%d", i), User: "alice", Server: "turing", Price: 1})
	}
	d.mu.Unlock()
	for pass, left := range []int{entries - maxSettleFlight, entries - 2*maxSettleFlight, 0} {
		d.settle()
		if n := d.OutboxLen(); n != left {
			t.Fatalf("after pass %d the outbox holds %d, want %d", pass+1, n, left)
		}
	}
	if got := delivered.Load(); got != entries {
		t.Fatalf("%d settlements delivered, want %d, each once", got, entries)
	}
	if m := most.Load(); m > maxSettleFlight || m < 2 {
		t.Fatalf("at most %d settlements in flight at once, want 2 to %d", m, maxSettleFlight)
	}
}
