package daemon

import (
	"errors"
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
