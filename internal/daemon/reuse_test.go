package daemon

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"faucets/internal/accounting"
	"faucets/internal/bidding"
	"faucets/internal/central"
	"faucets/internal/protocol"
)

// A job ID is the client's to choose, so a settled one can be chosen
// again. Each run of it is an admission of its own, and the Central
// Server books and bills every one.

// reuseGrid is an in-process Central Server with users alice and bob,
// serving on a loopback port.
func reuseGrid(t *testing.T) (fs *central.Server, addr string, tokens map[string]string) {
	t.Helper()
	fs = central.New(accounting.Dollars)
	tokens = map[string]string{}
	for _, u := range []string{"alice", "bob"} {
		if err := fs.Auth.AddUser(u, "pw", ""); err != nil {
			t.Fatal(err)
		}
		tok, err := fs.Auth.Login(u, "pw")
		if err != nil {
			t.Fatal(err)
		}
		tokens[u] = tok
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go fs.Serve(l)
	t.Cleanup(fs.Close)
	return fs, l.Addr().String(), tokens
}

// runAs commits id to d at price 2 for user, submits it, and returns once
// d has retired it: its settlement acknowledged.
func runAs(t *testing.T, d *Daemon, addr, user, token, id string) {
	t.Helper()
	conn := dial(t, addr)
	if err := protocol.Call(conn, protocol.TypeCommitReq, protocol.CommitReq{User: user, Token: token, JobID: id,
		Bid: bidding.Bid{Server: d.Name(), Price: 2}}, protocol.TypeCommitOK, &protocol.CommitOK{}); err != nil {
		t.Fatalf("commit %s on %s for %s: %v", id, d.Name(), user, err)
	}
	if err := protocol.Call(conn, protocol.TypeSubmitReq, protocol.SubmitReq{User: user, Token: token, JobID: id,
		Contract: contract(20)}, protocol.TypeSubmitOK, &protocol.SubmitOK{}); err != nil {
		t.Fatalf("submit %s on %s for %s: %v", id, d.Name(), user, err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		d.mu.Lock()
		a, ok := d.jobs[id]
		d.mu.Unlock()
		if ok && a.j.Owner == user && a.retired {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never retired on %s", id, d.Name())
		}
	}
}

// TestSettledJobIDRerunOnAnotherDaemonIsPaid: alice's x settles on
// turing; bob then runs x on lemieux, which never saw it. Bob pays for
// his run, lemieux is paid for it, and the history holds both rows.
func TestSettledJobIDRerunOnAnotherDaemonIsPaid(t *testing.T) {
	fs, fsAddr, tokens := reuseGrid(t)
	turing, turingAddr := startDaemon(t, Config{CentralAddr: fsAddr, SettleRetry: 5 * time.Millisecond})
	lemieux, lemieuxAddr := startDaemon(t, Config{CentralAddr: fsAddr, SettleRetry: 5 * time.Millisecond,
		Info: protocol.ServerInfo{Spec: spec("lemieux", 64), Apps: []string{"synth"}}})

	runAs(t, turing, turingAddr, "alice", tokens["alice"], "x")
	runAs(t, lemieux, lemieuxAddr, "bob", tokens["bob"], "x")
	if s, r := fs.DB.Spend("bob"), fs.DB.Revenue("lemieux"); s != 2 || r != 2 {
		t.Fatalf("bob's run of x: bob spent %v and lemieux earned %v, want 2 and 2", s, r)
	}
	if s, r, n := fs.DB.Spend("alice"), fs.DB.Revenue("turing"), fs.DB.HistoryLen(); s != 2 || r != 2 || n != 2 {
		t.Fatalf("alice spent %v, turing earned %v, %d history rows; want 2, 2 and 2", s, r, n)
	}
}

// TestSettledJobIDRerunAfterRestartIsPaid: alice's j settles on a
// durable daemon, which then restarts on its journal. A new commit and
// submit of j run it again, and alice pays for both runs.
func TestSettledJobIDRerunAfterRestartIsPaid(t *testing.T) {
	fs, fsAddr, tokens := reuseGrid(t)
	cfg := durableCfg(t.TempDir())
	cfg.CentralAddr, cfg.SettleRetry = fsAddr, 5*time.Millisecond
	d, addr := startDaemon(t, cfg)
	runAs(t, d, addr, "alice", tokens["alice"], "j")
	d.Close()

	d, addr = startDaemon(t, cfg)
	runAs(t, d, addr, "alice", tokens["alice"], "j")
	if s, r, n := fs.DB.Spend("alice"), fs.DB.Revenue("turing"), fs.DB.HistoryLen(); s != 4 || r != 4 || n != 2 {
		t.Fatalf("two runs of j: alice spent %v, turing earned %v, %d history rows; want 4, 4 and 2", s, r, n)
	}
}

// gatedCentral speaks enough of the Central Server's protocol for a
// daemon to register and verify, and books on fs each settlement pass
// lets through. Any other settlement is cut off at the transport, so the
// daemon keeps it queued; so is every one while pass is nil.
func gatedCentral(t *testing.T, fs *central.Server, pass *atomic.Pointer[func(protocol.SettleReq) bool]) string {
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
					var req protocol.SettleReq
					switch f.Type {
					case protocol.TypeRegisterReq:
						_ = protocol.WriteFrame(rc, protocol.TypeRegisterOK, protocol.RegisterOK{})
					case protocol.TypeVerifyReq:
						_ = protocol.WriteFrame(rc, protocol.TypeVerifyOK, protocol.VerifyOK{})
					case protocol.TypeSettleReq:
						if protocol.Decode(f, f.Type, &req) != nil || pass.Load() == nil || !(*pass.Load())(req) {
							return
						}
						if err := fs.Settle(req); err != nil {
							_ = protocol.WriteErrorFrom(rc, err)
						} else {
							_ = protocol.WriteFrame(rc, protocol.TypeSettleOK, protocol.SettleOK{})
						}
					default:
						_ = protocol.WriteErrorFrom(rc, errors.New("stub: "+f.Type))
					}
				}
			}()
		}
	}()
	return l.Addr().String()
}

// waitOutbox returns once d's outbox holds n settlements.
func waitOutbox(t *testing.T, d *Daemon, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); d.OutboxLen() != n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("outbox holds %d settlements, want %d", d.OutboxLen(), n)
		}
	}
}

// gatedDaemonCfg is a durable daemon's config whose Central Server books
// on fs only the settlements pass lets through.
func gatedDaemonCfg(t *testing.T, fs *central.Server, pass *atomic.Pointer[func(protocol.SettleReq) bool]) Config {
	cfg := durableCfg(t.TempDir())
	cfg.CentralAddr, cfg.SettleRetry, cfg.RPCTimeout = gatedCentral(t, fs, pass), 5*time.Millisecond, 500*time.Millisecond
	return cfg
}

// checkBothRunsBooked fails t unless fs's history holds two runs of x,
// each booked and charged to alice once.
func checkBothRunsBooked(t *testing.T, fs *central.Server) {
	t.Helper()
	rows := fs.DB.RecentContracts(nil, 10)
	if len(rows) != 2 || rows[0].JobID != "x" || rows[1].JobID != "x" || fs.DB.Spend("alice") != rows[0].Price+rows[1].Price {
		t.Fatalf("history %+v and alice's spend %v: want both runs of x booked once each", rows, fs.DB.Spend("alice"))
	}
}

// TestJournalRestartWithQueuedSettlementKeepsBothRuns: x finishes while
// its settlement cannot be delivered, and the daemon restarts with it
// queued. x is then committed, submitted and finished again. The first
// run's ack must neither retire the second run nor, a restart later,
// drop the second run's queued settlement: both are booked, once each.
func TestJournalRestartWithQueuedSettlementKeepsBothRuns(t *testing.T) {
	fs := central.New(accounting.Dollars)
	t.Cleanup(fs.Close)
	var pass atomic.Pointer[func(protocol.SettleReq) bool]
	cfg := gatedDaemonCfg(t, fs, &pass)

	// The first run is short, the second long: the gate tells their
	// settlements apart by the CPU-seconds each reports.
	d, addr := startDaemon(t, cfg)
	runJobOverWire(t, dial(t, addr), "x", "tok", 100)
	waitOutbox(t, d, 1)
	d.Close()
	d, addr = startDaemon(t, cfg)
	runJobOverWire(t, dial(t, addr), "x", "tok", 1000)
	waitOutbox(t, d, 2)

	first := func(req protocol.SettleReq) bool { return req.CPUSeconds < 500 }
	pass.Store(&first)
	waitOutbox(t, d, 1)
	d.mu.Lock()
	retired := d.jobs["x"].retired
	d.mu.Unlock()
	if retired || fs.DB.HistoryLen() != 1 {
		t.Fatalf("after the first run's ack: second run retired %v, %d history rows; want false and 1", retired, fs.DB.HistoryLen())
	}
	d.Close()

	d, _ = startDaemon(t, cfg)
	if got := d.OutboxLen(); got != 1 {
		t.Fatalf("the second restart recovered %d queued settlements, want the second run's", got)
	}
	all := func(protocol.SettleReq) bool { return true }
	pass.Store(&all)
	waitOutbox(t, d, 0)
	d.Close()
	checkBothRunsBooked(t, fs)
}

// TestJournalRestartWhileRerunRunsKeepsIt: x's first run sits queued
// and unacknowledged while its second run is admitted, and the daemon
// stops with the second still running. The compacted journal lists the
// second run's admission before the first run's queued settlement; the
// next boot must not take that settlement for the second run's end. The
// second run restarts, and both runs are booked once.
func TestJournalRestartWhileRerunRunsKeepsIt(t *testing.T) {
	fs := central.New(accounting.Dollars)
	t.Cleanup(fs.Close)
	var pass atomic.Pointer[func(protocol.SettleReq) bool]
	cfg := gatedDaemonCfg(t, fs, &pass)

	d, addr := startDaemon(t, cfg)
	runJobOverWire(t, dial(t, addr), "x", "tok", 100)
	waitOutbox(t, d, 1)
	d.Close()
	d, addr = startDaemon(t, cfg)
	runJobOverWire(t, dial(t, addr), "x", "tok", 5000)
	d.mu.Lock()
	second := d.jobs["x"].num
	d.mu.Unlock()
	d.Close()

	d, _ = startDaemon(t, cfg)
	d.mu.Lock()
	a, ok := d.jobs["x"]
	d.mu.Unlock()
	if !ok || a.num != second || d.OutboxLen() != 1 {
		t.Fatalf("after the restart: x admitted %v (admission %d, want %d), %d queued settlements; want the second run back and the first queued",
			ok, a.num, second, d.OutboxLen())
	}
	waitOutbox(t, d, 2)
	all := func(protocol.SettleReq) bool { return true }
	pass.Store(&all)
	waitOutbox(t, d, 0)
	d.Close()
	checkBothRunsBooked(t, fs)
}
