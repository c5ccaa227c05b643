package central

import (
	"errors"
	"net"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"faucets/internal/accounting"
	"faucets/internal/protocol"
)

// TestAppsStaleness: the Known Applications list must apply the same
// liveness rules as the server directory — a dead or stale daemon's
// applications are not offerable.
func TestAppsStaleness(t *testing.T) {
	s := New(accounting.Dollars)
	defer s.Close()
	_ = s.RegisterDaemon(info("a", 8, 512, "namd"))
	_ = s.RegisterDaemon(info("b", 8, 512, "cfd"))
	s.MarkDead("b")
	apps := s.Apps()
	if len(apps) != 1 || apps[0] != "namd" {
		t.Fatalf("apps=%v: dead daemon's apps still offered", apps)
	}
	s.DeadAfter = time.Millisecond
	time.Sleep(5 * time.Millisecond)
	if apps := s.Apps(); len(apps) != 0 {
		t.Fatalf("apps=%v: stale daemon's apps still offered", apps)
	}
}

// TestSettlePersistsContractShape: the history row must carry the
// contract's app and processor range, otherwise the §5.2.1 bucket
// filter lumps every record into the same bucket.
func TestSettlePersistsContractShape(t *testing.T) {
	s := New(accounting.Dollars)
	defer s.Close()
	err := s.Settle(protocol.SettleReq{
		JobID: "j1", User: "u", Server: "big",
		App: "namd", MinPE: 2, MaxPE: 16,
		Price: 42, CPUSeconds: 420,
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := s.DB.RecentContracts(nil, 1)
	if len(recs) != 1 {
		t.Fatal("no history row")
	}
	r := recs[0]
	if r.App != "namd" || r.MinPE != 2 || r.MaxPE != 16 {
		t.Fatalf("record=%+v: contract shape lost on settlement", r)
	}
}

// TestHistoryBucketFilterAfterSettle: regression for the bucket filter
// seeing only settled (wire-shaped) rows — a small-bucket query must
// not return medium-bucket contracts and vice versa.
func TestHistoryBucketFilterAfterSettle(t *testing.T) {
	s := New(accounting.Dollars)
	srv := info("srv", 64, 1024, "synth")
	srv.Spec.CostRate = 1 // list price = CPU-seconds, so multiplier = price/cpu
	if err := s.RegisterDaemon(srv); err != nil {
		t.Fatal(err)
	}
	settle := func(id string, maxPE int, price, cpu float64) {
		t.Helper()
		if err := s.Settle(protocol.SettleReq{
			JobID: id, User: "u", Server: "srv", App: "synth",
			MinPE: 1, MaxPE: maxPE, Price: price, CPUSeconds: cpu,
		}); err != nil {
			t.Fatal(err)
		}
	}
	settle("j-small-1", 4, 12, 10) // small bucket, multiplier 1.2
	settle("j-med", 32, 20, 10)    // medium bucket, multiplier 2.0
	settle("j-small-2", 6, 8, 10)  // small bucket, multiplier 0.8
	addr := startTCP(t, s)
	conn := dial(t, addr)

	query := func(maxPE int) []protocol.HistoryRecord {
		t.Helper()
		var reply protocol.HistoryOK
		if err := protocol.Call(conn, protocol.TypeHistoryReq,
			protocol.HistoryReq{MaxPE: maxPE, Limit: 10}, protocol.TypeHistoryOK, &reply); err != nil {
			t.Fatal(err)
		}
		return reply.Records
	}
	small := query(8)
	if len(small) != 2 || small[0].Multiplier != 0.8 || small[1].Multiplier != 1.2 {
		t.Fatalf("small bucket: %v", small)
	}
	medium := query(64)
	if len(medium) != 1 || medium[0].Multiplier != 2.0 {
		t.Fatalf("medium bucket: %v", medium)
	}
	if large := query(128); len(large) != 0 {
		t.Fatalf("large bucket: %v", large)
	}
}

// flakyListener injects transient Accept failures before delegating to
// the real listener.
type flakyListener struct {
	net.Listener
	failures atomic.Int32
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.failures.Add(-1) >= 0 {
		return nil, errors.New("accept: too many open files")
	}
	return l.Listener.Accept()
}

// TestServeSurvivesTransientAcceptErrors: a burst of EMFILE-style
// Accept failures must not kill the listener goroutine.
func TestServeSurvivesTransientAcceptErrors(t *testing.T) {
	s := New(accounting.Dollars)
	_ = s.Auth.AddUser("alice", "pw", "")
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &flakyListener{Listener: inner}
	fl.failures.Store(3)
	go s.Serve(fl)
	t.Cleanup(s.Close)

	conn := dial(t, inner.Addr().String())
	var ok protocol.AuthOK
	if err := protocol.CallTimeout(conn, 5*time.Second, protocol.TypeAuthReq,
		protocol.AuthReq{User: "alice", Password: "pw"}, protocol.TypeAuthOK, &ok); err != nil {
		t.Fatalf("server never recovered from transient accept errors: %v", err)
	}
	if fl.failures.Load() > 0 {
		t.Fatal("flaky listener never exercised its failures")
	}
}

// emfileListener fails Accept with the real descriptor-exhaustion errno
// until its failure budget drains, then delegates.
type emfileListener struct {
	net.Listener
	failures atomic.Int32
	accepts  atomic.Int32
}

func (l *emfileListener) Accept() (net.Conn, error) {
	l.accepts.Add(1)
	if l.failures.Add(-1) >= 0 {
		return nil, &net.OpError{Op: "accept", Net: "tcp", Err: syscall.EMFILE}
	}
	return l.Listener.Accept()
}

// TestServeBacksOffUnderFDExhaustion: a run of EMFILE failures must be
// absorbed by the doubling backoff — the loop recovers once descriptors
// free up, and the retry cadence proves it slept rather than spun.
func TestServeBacksOffUnderFDExhaustion(t *testing.T) {
	s := New(accounting.Dollars)
	_ = s.Auth.AddUser("alice", "pw", "")
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	el := &emfileListener{Listener: inner}
	el.failures.Store(5)
	start := time.Now()
	go s.Serve(el)
	t.Cleanup(s.Close)

	conn := dial(t, inner.Addr().String())
	var ok protocol.AuthOK
	if err := protocol.CallTimeout(conn, 5*time.Second, protocol.TypeAuthReq,
		protocol.AuthReq{User: "alice", Password: "pw"}, protocol.TypeAuthOK, &ok); err != nil {
		t.Fatalf("server never recovered from FD exhaustion: %v", err)
	}
	// Five failures back off 5+10+20+40+80 = 155ms before the successful
	// accept; anywhere near that proves the loop slept between retries.
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Fatalf("recovered in %v with 5 EMFILE failures — accept loop is spinning, not backing off", elapsed)
	}
}

// TestServeCloseDuringBackoff: closing the server while the accept loop
// is parked in an EMFILE backoff must end Serve promptly instead of
// waiting the backoff out (or forever, with a persistent fault).
func TestServeCloseDuringBackoff(t *testing.T) {
	s := New(accounting.Dollars)
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	el := &emfileListener{Listener: inner}
	el.failures.Store(1 << 30) // effectively permanent exhaustion
	done := make(chan struct{})
	go func() {
		s.Serve(el)
		close(done)
	}()
	// Let the loop hit EMFILE and start climbing the backoff ladder.
	for el.accepts.Load() < 3 {
		time.Sleep(time.Millisecond)
	}
	s.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Serve still running after Close during backoff")
	}
}

// hungListener accepts connections and never answers — the failure mode
// a deadline-less poller hangs on forever.
func hungListener(t *testing.T) string {
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
			t.Cleanup(func() { conn.Close() })
		}
	}()
	return l.Addr().String()
}

// TestPollOnceHungDaemonsDoNotSerialize: four hung daemons polled with
// a 300ms probe deadline must cost ~one deadline, not four — the probes
// run in parallel and the responsive daemon stays live.
func TestPollOnceHungDaemonsDoNotSerialize(t *testing.T) {
	s := New(accounting.Dollars)
	defer s.Close()
	s.PollTimeout = 300 * time.Millisecond
	good := info("good", 8, 512)
	good.Addr = pollable(t, false)
	if err := s.RegisterDaemon(good); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"hung1", "hung2", "hung3", "hung4"} {
		i := info(name, 8, 512)
		i.Addr = hungListener(t)
		if err := s.RegisterDaemon(i); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	alive := s.PollOnce()
	elapsed := time.Since(start)
	if alive != 1 {
		t.Fatalf("alive=%d, want 1", alive)
	}
	// Sequential probing would take ≥ 4×300ms = 1.2s.
	if elapsed >= 1200*time.Millisecond {
		t.Fatalf("poll took %v: hung daemons serialized the refresh", elapsed)
	}
	live := s.Servers(nil)
	if len(live) != 1 || live[0].Spec.Name != "good" {
		t.Fatalf("live=%v", live)
	}
}

// TestCloseBeforeServe: a Serve that starts after Close must not accept
// on behalf of a server that is gone (the accept loop itself is tested
// in internal/protocol).
func TestCloseBeforeServe(t *testing.T) {
	s := New(accounting.Dollars)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	s.Close()
	done := make(chan struct{})
	go func() {
		s.Serve(l)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Serve still accepting 1s after a Close that preceded it")
	}
	if _, err := l.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("listener left open: Accept err = %v", err)
	}
}

// TestCloseDoesNotWaitOutAHungPeer: a handler blocked in a call to a
// peer that never answers must not hold Close for the RPC timeout —
// closing the peer pool is what ends that call.
func TestCloseDoesNotWaitOutAHungPeer(t *testing.T) {
	s := New(accounting.Dollars)
	s.SetPeers([]string{hungListener(t)})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	conn := dial(t, l.Addr().String())
	// A token this server never issued: the handler asks the peer.
	if err := protocol.WriteFrame(conn, protocol.TypeVerifyReq, protocol.VerifyReq{User: "mallory", Token: "nope"}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(2 * time.Second); s.peerRPC().OpenConns() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("handler never reached the peer")
		}
	}
	start := time.Now()
	s.Close()
	if elapsed := time.Since(start); elapsed > s.RPCTimeout/2 {
		t.Fatalf("Close took %v: it waited out the hung peer's timeout", elapsed)
	}
}
