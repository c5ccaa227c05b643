package daemon

import (
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"faucets/internal/accounting"
	"faucets/internal/bidding"
	"faucets/internal/central"
	"faucets/internal/job"
	"faucets/internal/machine"
	"faucets/internal/protocol"
	"faucets/internal/qos"
	"faucets/internal/scheduler"
	"faucets/internal/server"
	"faucets/internal/stage"
)

func spec(name string, pe int) machine.Spec {
	return machine.Spec{Name: name, NumPE: pe, MemPerPE: 1024, CPUType: "x86", Speed: 1, CostRate: 0.01}
}

// startDaemon boots a standalone daemon (no FS/AS) at high time scale.
func startDaemon(t *testing.T, cfg Config) (*Daemon, string) {
	t.Helper()
	if cfg.Info.Spec.Name == "" {
		cfg.Info = protocol.ServerInfo{Spec: spec("turing", 64), Apps: []string{"synth"}}
	}
	if cfg.Scheduler == nil {
		cfg.Scheduler = scheduler.NewEquipartition(cfg.Info.Spec, scheduler.Config{})
	}
	if cfg.TimeScale == 0 {
		cfg.TimeScale = 1000 // 1 wall ms = 1 virtual second
	}
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
	t.Cleanup(d.Close)
	return d, l.Addr().String()
}

// tracked reports whether the daemon answers a status call for id: it
// knows every job it has admitted and not finished with a kill.
func tracked(t *testing.T, conn net.Conn, id string) bool {
	t.Helper()
	var st protocol.StatusOK
	err := protocol.Call(conn, protocol.TypeStatusReq, protocol.StatusReq{JobID: id}, protocol.TypeStatusOK, &st)
	var remote *protocol.RemoteError
	if errors.As(err, &remote) {
		return false
	}
	if err != nil {
		t.Fatal(err)
	}
	return true
}

func dial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func contract(work float64) *qos.Contract {
	return &qos.Contract{App: "synth", MinPE: 2, MaxPE: 16, Work: work}
}

// commitJob holds d to price for user's job id, as a client's commit
// does: d admits a submit of id by user only while the hold lasts.
func commitJob(t testing.TB, d *Daemon, user, id string, price float64) {
	t.Helper()
	if err := d.commit(&protocol.CommitReq{User: user, JobID: id, Bid: bidding.Bid{Server: d.Name(), Price: price}}); err != nil {
		t.Fatalf("commit %s: %v", id, err)
	}
}

// queuedLocked is the queued work a bid made now is priced from. Caller
// holds d.mu.
func queuedLocked(d *Daemon) float64 { return d.core.State(d.Now(), contract(1)).QueuedWork }

// submit is the submit arm's work without the wire: admit req, and return
// once its admission is on disk, when the arm would acknowledge.
func (d *Daemon) submit(req protocol.SubmitReq) error { return d.journalWait(d.admit(&req)) }

// kill is the kill arm's work without the wire, as submit is.
func (d *Daemon) kill(req protocol.KillReq) (string, error) {
	state, t, err := d.terminate(req)
	return state, d.journalWait(t, err)
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("daemon without scheduler accepted")
	}
	bad := Config{Scheduler: scheduler.NewFCFS(spec("x", 4), scheduler.Config{})}
	bad.Info.Spec = machine.Spec{Name: "x", NumPE: 0, Speed: 1}
	if _, err := New(bad); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestPoll(t *testing.T) {
	_, addr := startDaemon(t, Config{})
	conn := dial(t, addr)
	var poll protocol.PollOK
	if err := protocol.Call(conn, protocol.TypePollReq, protocol.PollReq{}, protocol.TypePollOK, &poll); err != nil {
		t.Fatal(err)
	}
	if poll.UsedPE != 0 || poll.Running != 0 {
		t.Fatalf("poll=%+v", poll)
	}
}

func TestBidSubmitStatusLifecycle(t *testing.T) {
	_, addr := startDaemon(t, Config{})
	conn := dial(t, addr)

	c := contract(200) // ~12.5 virtual seconds on 16 PEs
	var bid protocol.BidOK
	if err := protocol.Call(conn, protocol.TypeBidReq, protocol.BidReq{User: "alice", Contract: c}, protocol.TypeBidOK, &bid); err != nil {
		t.Fatal(err)
	}
	if bid.Bid.Server != "turing" || bid.Bid.Multiplier != 1.0 {
		t.Fatalf("bid=%+v", bid.Bid)
	}
	var commit protocol.CommitOK
	if err := protocol.Call(conn, protocol.TypeCommitReq, protocol.CommitReq{User: "alice", JobID: "j1", Bid: bid.Bid}, protocol.TypeCommitOK, &commit); err != nil {
		t.Fatal(err)
	}
	// Upload an input file.
	payload := []byte("input data")
	var up protocol.UploadOK
	err := protocol.Call(conn, protocol.TypeUploadReq, protocol.UploadReq{
		User: "alice", JobID: "j1", Name: "in.dat", Offset: 0, Data: payload, Last: true, SHA256: stage.Digest(payload),
	}, protocol.TypeUploadOK, &up)
	if err != nil || up.Received != int64(len(payload)) {
		t.Fatalf("upload: %+v %v", up, err)
	}
	var sub protocol.SubmitOK
	if err := protocol.Call(conn, protocol.TypeSubmitReq, protocol.SubmitReq{User: "alice", JobID: "j1", Contract: c}, protocol.TypeSubmitOK, &sub); err != nil {
		t.Fatal(err)
	}
	// Wait for completion via status polling.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st protocol.StatusOK
		if err := protocol.Call(conn, protocol.TypeStatusReq, protocol.StatusReq{JobID: "j1"}, protocol.TypeStatusOK, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == "finished" {
			if st.Progress < 0.999 {
				t.Fatalf("finished with progress %v", st.Progress)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Output download (the run loop wrote result.out).
	deadline = time.Now().Add(5 * time.Second)
	for {
		var out protocol.OutputOK
		err := protocol.Call(conn, protocol.TypeOutputReq, protocol.OutputReq{JobID: "j1", Name: "result.out"}, protocol.TypeOutputOK, &out)
		if err == nil && out.EOF && strings.Contains(string(out.Data), "job=j1") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("result.out never appeared: %+v %v", out, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestBidDeclinedForInfeasibleJob(t *testing.T) {
	_, addr := startDaemon(t, Config{})
	conn := dial(t, addr)
	c := &qos.Contract{App: "synth", MinPE: 1000, MaxPE: 1000, Work: 1}
	var bid protocol.BidOK
	err := protocol.Call(conn, protocol.TypeBidReq, protocol.BidReq{User: "u", Contract: c}, protocol.TypeBidOK, &bid)
	if err == nil || !strings.Contains(err.Error(), "declines") {
		t.Fatalf("err=%v", err)
	}
}

func TestBidRejectsInvalidContract(t *testing.T) {
	_, addr := startDaemon(t, Config{})
	conn := dial(t, addr)
	c := &qos.Contract{App: "", MinPE: 1, MaxPE: 1, Work: 1}
	var bid protocol.BidOK
	if err := protocol.Call(conn, protocol.TypeBidReq, protocol.BidReq{User: "u", Contract: c}, protocol.TypeBidOK, &bid); err == nil {
		t.Fatal("invalid contract got a bid")
	}
}

func TestCommitExpiredBid(t *testing.T) {
	_, addr := startDaemon(t, Config{})
	conn := dial(t, addr)
	stale := bidding.Bid{Server: "turing", Price: 1, ExpiresAt: 0.000001}
	time.Sleep(5 * time.Millisecond) // virtual clock is 1000x: long past expiry
	var commit protocol.CommitOK
	err := protocol.Call(conn, protocol.TypeCommitReq, protocol.CommitReq{User: "u", JobID: "stale", Bid: stale}, protocol.TypeCommitOK, &commit)
	if err == nil || !strings.Contains(err.Error(), "expired") {
		t.Fatalf("err=%v", err)
	}
}

// Commit and submit are idempotent per (job, user) — a client retrying
// after a lost ack is re-acknowledged — but a different user colliding
// on the same job ID is refused.
func TestDoubleCommitAndDoubleSubmit(t *testing.T) {
	_, addr := startDaemon(t, Config{})
	conn := dial(t, addr)
	b := bidding.Bid{Server: "turing", Price: 1, ExpiresAt: 1e12}
	var commit protocol.CommitOK
	if err := protocol.Call(conn, protocol.TypeCommitReq, protocol.CommitReq{User: "u", JobID: "dup", Bid: b}, protocol.TypeCommitOK, &commit); err != nil {
		t.Fatal(err)
	}
	if err := protocol.Call(conn, protocol.TypeCommitReq, protocol.CommitReq{User: "u", JobID: "dup", Bid: b}, protocol.TypeCommitOK, &commit); err != nil {
		t.Fatalf("same-user commit retry refused: %v", err)
	}
	err := protocol.Call(conn, protocol.TypeCommitReq, protocol.CommitReq{User: "other", JobID: "dup", Bid: b}, protocol.TypeCommitOK, &commit)
	if err == nil || !strings.Contains(err.Error(), "committed") {
		t.Fatalf("foreign commit on a reserved job: err=%v", err)
	}
	c := contract(1e7)
	var sub protocol.SubmitOK
	if err := protocol.Call(conn, protocol.TypeSubmitReq, protocol.SubmitReq{User: "u", JobID: "dup", Contract: c}, protocol.TypeSubmitOK, &sub); err != nil {
		t.Fatal(err)
	}
	if err := protocol.Call(conn, protocol.TypeSubmitReq, protocol.SubmitReq{User: "u", JobID: "dup", Contract: c}, protocol.TypeSubmitOK, &sub); err != nil {
		t.Fatalf("same-user submit retry refused: %v", err)
	}
	err = protocol.Call(conn, protocol.TypeSubmitReq, protocol.SubmitReq{User: "other", JobID: "dup", Contract: c}, protocol.TypeSubmitOK, &sub)
	if err == nil || !strings.Contains(err.Error(), "submitted") {
		t.Fatalf("foreign submit on a running job: err=%v", err)
	}
}

// TestSubmitWithoutCommitRefused: a submit with no commit before it is
// refused, over the wire and in process, and leaves nothing on the
// daemon: no job, no hold, no staging area, no queued work.
func TestSubmitWithoutCommitRefused(t *testing.T) {
	d, addr := startDaemon(t, Config{})
	conn := dial(t, addr)
	var sub protocol.SubmitOK
	err := protocol.Call(conn, protocol.TypeSubmitReq, protocol.SubmitReq{User: "u", JobID: "direct", Contract: contract(1e7)}, protocol.TypeSubmitOK, &sub)
	if err == nil {
		t.Fatal("a submit with no commit was admitted")
	}
	if tracked(t, conn, "direct") {
		t.Fatal("a refused submit is on the daemon")
	}
	if err := d.submit(protocol.SubmitReq{User: "u", JobID: "direct", Contract: contract(1e7)}); !errors.Is(err, server.ErrNoCommitment) {
		t.Fatalf("submit with no commit: %v, want server.ErrNoCommitment", err)
	}
	if _, _, err := d.Stage.ReadAt("direct", "in.dat", 0, 0); !errors.Is(err, stage.ErrNoJob) {
		t.Fatalf("a refused submit made a staging area: %v", err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	_, held := d.core.HeldFor(d.Now(), "direct", "u")
	if len(d.jobs) != 0 || !errors.Is(held, server.ErrNoCommitment) || queuedLocked(d) != 0 {
		t.Fatalf("a refused submit left %d jobs, a hold (%v), %v queued work", len(d.jobs), held, queuedLocked(d))
	}
}

// TestKillLeavesNoQueuedWork: a job killed halfway through leaves none of
// its work in the queued work later bids are priced from — its whole
// contract leaves, as a finished job's does, not only what it had left.
func TestKillLeavesNoQueuedWork(t *testing.T) {
	info := protocol.ServerInfo{Spec: spec("turing", 64), Apps: []string{"synth"}}
	d, err := New(Config{Info: info, Scheduler: scheduler.NewEquipartition(info.Spec, scheduler.Config{}),
		TimeScale: 1e-6}) // the clock stands still but for advance
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	commitJob(t, d, "alice", "half", 1)
	if err := d.submit(protocol.SubmitReq{User: "alice", JobID: "half", Contract: contract(1600)}); err != nil {
		t.Fatal(err)
	}
	advance(d, 50) // 16 PEs for 50 s: 800 of its 1 600 CPU-seconds
	if _, err := d.kill(protocol.KillReq{User: "alice", JobID: "half"}); err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	queued, done := queuedLocked(d), d.jobs["half"].j.DoneWork()
	d.mu.Unlock()
	if done < 700 || done > 900 {
		t.Fatalf("the job had done %v CPU-seconds when killed, want ≈800", done)
	}
	if queued != 0 {
		t.Fatalf("a job killed halfway left %v CPU-seconds queued, want 0", queued)
	}
}

func TestStatusUnknownJob(t *testing.T) {
	_, addr := startDaemon(t, Config{})
	conn := dial(t, addr)
	var st protocol.StatusOK
	if err := protocol.Call(conn, protocol.TypeStatusReq, protocol.StatusReq{JobID: "ghost"}, protocol.TypeStatusOK, &st); err == nil {
		t.Fatal("unknown job reported status")
	}
}

func TestVerifyAgainstCentral(t *testing.T) {
	fs := central.New(accounting.Dollars)
	_ = fs.Auth.AddUser("alice", "pw", "")
	fsl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go fs.Serve(fsl)
	t.Cleanup(fs.Close)

	_, addr := startDaemon(t, Config{CentralAddr: fsl.Addr().String()})
	conn := dial(t, addr)

	token, err := fs.Auth.Login("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	var bid protocol.BidOK
	if err := protocol.Call(conn, protocol.TypeBidReq, protocol.BidReq{User: "alice", Token: token, Contract: contract(100)}, protocol.TypeBidOK, &bid); err != nil {
		t.Fatalf("verified bid failed: %v", err)
	}
	// Wrong token → FD relays the FS rejection.
	err = protocol.Call(conn, protocol.TypeBidReq, protocol.BidReq{User: "alice", Token: "bogus", Contract: contract(100)}, protocol.TypeBidOK, &bid)
	if err == nil {
		t.Fatal("bogus token accepted via FD")
	}
}

func TestRegistersWithCentralOnStart(t *testing.T) {
	fs := central.New(accounting.Dollars)
	fsl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go fs.Serve(fsl)
	t.Cleanup(fs.Close)

	_, _ = startDaemon(t, Config{CentralAddr: fsl.Addr().String()})
	servers := fs.Servers(nil)
	if len(servers) != 1 || servers[0].Spec.Name != "turing" {
		t.Fatalf("directory=%v", servers)
	}
	if servers[0].Addr == "" {
		t.Fatal("daemon registered without its address")
	}
}

func TestKnownApplicationsEnforced(t *testing.T) {
	cfg := Config{Info: protocol.ServerInfo{Spec: spec("strict", 32), Apps: []string{"namd"}}}
	cfg.Scheduler = scheduler.NewEquipartition(cfg.Info.Spec, scheduler.Config{})
	d, addr := startDaemon(t, cfg)
	conn := dial(t, addr)
	// An unexported application gets no bid (the §2.2 trust model).
	unknown := &qos.Contract{App: "synth", MinPE: 1, MaxPE: 4, Work: 10}
	var bid protocol.BidOK
	if err := protocol.Call(conn, protocol.TypeBidReq, protocol.BidReq{User: "u", Contract: unknown}, protocol.TypeBidOK, &bid); err == nil {
		t.Fatal("daemon bid on an application it does not export")
	}
	// ... and cannot be submitted either, even on a commitment.
	commitJob(t, d, "u", "x", 1)
	var sub protocol.SubmitOK
	if err := protocol.Call(conn, protocol.TypeSubmitReq, protocol.SubmitReq{User: "u", JobID: "x", Contract: unknown}, protocol.TypeSubmitOK, &sub); err == nil {
		t.Fatal("daemon ran an application it does not export")
	}
	// The exported app is fine.
	known := &qos.Contract{App: "namd", MinPE: 1, MaxPE: 4, Work: 10}
	if err := protocol.Call(conn, protocol.TypeBidReq, protocol.BidReq{User: "u", Contract: known}, protocol.TypeBidOK, &bid); err != nil {
		t.Fatalf("exported app declined: %v", err)
	}
}

func TestDaemonNoAppListAcceptsAnything(t *testing.T) {
	cfg := Config{Info: protocol.ServerInfo{Spec: spec("open", 32)}}
	cfg.Scheduler = scheduler.NewEquipartition(cfg.Info.Spec, scheduler.Config{})
	_, addr := startDaemon(t, cfg)
	conn := dial(t, addr)
	var bid protocol.BidOK
	c := &qos.Contract{App: "anything", MinPE: 1, MaxPE: 4, Work: 10}
	if err := protocol.Call(conn, protocol.TypeBidReq, protocol.BidReq{User: "u", Contract: c}, protocol.TypeBidOK, &bid); err != nil {
		t.Fatalf("open daemon declined: %v", err)
	}
}

func TestReRegisterHeartbeatRestoresDirectory(t *testing.T) {
	fs := central.New(accounting.Dollars)
	fsl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go fs.Serve(fsl)
	t.Cleanup(fs.Close)

	_, _ = startDaemon(t, Config{CentralAddr: fsl.Addr().String(), ReRegister: 20 * time.Millisecond})
	if len(fs.Servers(nil)) != 1 {
		t.Fatal("initial registration missing")
	}
	// The FS restarts on the same address with an empty directory.
	fs.Close()
	fs = central.New(accounting.Dollars)
	fsl, err = net.Listen("tcp", fsl.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	go fs.Serve(fsl)
	t.Cleanup(fs.Close)
	deadline := time.Now().Add(5 * time.Second)
	for len(fs.Servers(nil)) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("heartbeat never re-registered the daemon")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJobsRunUnderTemporaryUserIDs: each job runs under a userid of its
// own, which its result.out names (§2.2).
func TestJobsRunUnderTemporaryUserIDs(t *testing.T) {
	d, addr := startDaemon(t, Config{})
	conn := dial(t, addr)
	var sub protocol.SubmitOK
	for _, id := range []string{"t1", "t2"} {
		commitJob(t, d, "alice", id, 1)
		if err := protocol.Call(conn, protocol.TypeSubmitReq, protocol.SubmitReq{User: "alice", JobID: id, Contract: contract(200)}, protocol.TypeSubmitOK, &sub); err != nil {
			t.Fatal(err)
		}
	}
	u1, u2 := resultUser(t, conn, "t1"), resultUser(t, conn, "t2")
	if u1 == "" || u2 == "" || u1 == u2 {
		t.Fatalf("temp users: %q %q", u1, u2)
	}
	if !strings.HasPrefix(u1, "fauc-tmp-") {
		t.Fatalf("temp user format: %q", u1)
	}
}

// TestOutputFileBytes pins the synthetic application's two output files
// byte for byte, temporary userid and all.
func TestOutputFileBytes(t *testing.T) {
	d, err := New(Config{Info: protocol.ServerInfo{Spec: spec("turing", 64), Apps: []string{"synth"}},
		Scheduler: scheduler.NewEquipartition(spec("turing", 64), scheduler.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	j := job.New("job-7", "alice", contract(200), 0)
	if err := j.Start(0, 16, 1); err != nil || !j.AdvanceTo(100) {
		t.Fatalf("building a finished job: %v", err)
	}
	d.jobs["job-7"] = admission{j: j, price: 1, tmp: 42}
	d.Stage.CreateJob("job-7")
	d.finishJob(12.34, j)
	for name, want := range map[string]string{
		"stdout.log": "[12.3] job-7 completed as fauc-tmp-000042: 200 CPU-seconds\n",
		"result.out": "job=job-7 user=fauc-tmp-000042 work=200 cpu=200\n",
	} {
		if got, _, err := d.Stage.ReadAt("job-7", name, 0, 0); err != nil || string(got) != want {
			t.Errorf("%s reads %q (%v), want %q", name, got, err, want)
		}
	}
}

// resultUser waits for a job's result.out and returns the userid on its
// user= field.
func resultUser(t *testing.T, conn net.Conn, id string) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var out protocol.OutputOK
		err := protocol.Call(conn, protocol.TypeOutputReq, protocol.OutputReq{JobID: id, Name: "result.out"}, protocol.TypeOutputOK, &out)
		if err == nil && out.EOF && len(out.Data) > 0 {
			for _, field := range strings.Fields(string(out.Data)) {
				if user, ok := strings.CutPrefix(field, "user="); ok {
					return user
				}
			}
			t.Fatalf("%s result.out names no user: %q", id, out.Data)
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s result.out never appeared: %v", id, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// lateListener hands out one connection as though it had been accepted
// while Close was already severing the rest, then reports itself closed.
type lateListener struct{ conn net.Conn }

func (l *lateListener) Accept() (net.Conn, error) {
	if c := l.conn; c != nil {
		l.conn = nil
		return c, nil
	}
	return nil, net.ErrClosed
}
func (l *lateListener) Close() error   { return nil }
func (l *lateListener) Addr() net.Addr { return &net.TCPAddr{} }

// TestTrackRefusesAfterClose: once the daemon is closed, neither a
// connection a listener still hands out nor an outbound one the monitor
// loop dials is taken on — Close would never sever it (the rule is
// protocol.Server's; this pins that the daemon's Close reaches it).
func TestTrackRefusesAfterClose(t *testing.T) {
	d, _ := startDaemon(t, Config{})
	d.Close()
	ours, theirs := net.Pipe()
	defer theirs.Close()
	if d.srv.Track(ours) {
		t.Fatal("Track accepted a connection after Close")
	}
	d.srv.Serve(&lateListener{conn: ours})
	_ = theirs.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := theirs.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("late connection not closed by the accept loop: read err = %v, want EOF", err)
	}
}

// TestCloseRightAfterStartClosesListener: Close may run before the
// accept loop has stored the listener Start handed it; the listener is
// closed all the same by the time Close returns, and nothing dialing
// the address is served by a daemon that is gone.
func TestCloseRightAfterStartClosesListener(t *testing.T) {
	for i := 0; i < 20; i++ {
		d, addr := startDaemon(t, Config{})
		d.Close()
		if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			conn.Close()
			t.Fatalf("round %d: listener still accepting after Close", i)
		}
	}
}
