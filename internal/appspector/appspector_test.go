package appspector

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"faucets/internal/protocol"
)

func startServer(t *testing.T, verify VerifyFunc) (*Server, string) {
	t.Helper()
	s := NewServer(verify)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(s.Close)
	return s, l.Addr().String()
}

func TestRegisterIngestSnapshot(t *testing.T) {
	s := NewServer(nil)
	s.Register("j1", "alice", "turing", "namd")
	if err := s.Ingest(protocol.Telemetry{JobID: "j1", Time: 1, Util: 0.9, State: "running"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest(protocol.Telemetry{JobID: "j1", Time: 2, Util: 0.8, State: "finished"}); err != nil {
		t.Fatal(err)
	}
	hist, done, err := s.Snapshot("j1")
	if err != nil || !done || len(hist) != 2 {
		t.Fatalf("hist=%d done=%v err=%v", len(hist), done, err)
	}
	// Post-terminal samples are ignored.
	_ = s.Ingest(protocol.Telemetry{JobID: "j1", Time: 3, State: "running"})
	hist, _, _ = s.Snapshot("j1")
	if len(hist) != 2 {
		t.Fatal("sample accepted after terminal state")
	}
}

func TestIngestUnknownJob(t *testing.T) {
	s := NewServer(nil)
	if err := s.Ingest(protocol.Telemetry{JobID: "ghost"}); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("err=%v", err)
	}
	if _, _, err := s.Snapshot("ghost"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("err=%v", err)
	}
}

func TestRegisterIdempotent(t *testing.T) {
	s := NewServer(nil)
	s.Register("j", "a", "s", "app")
	_ = s.Ingest(protocol.Telemetry{JobID: "j", Time: 1, State: "running"})
	s.Register("j", "a", "s", "app") // must not clear history
	hist, _, _ := s.Snapshot("j")
	if len(hist) != 1 {
		t.Fatal("re-register cleared history")
	}
}

func TestHistoryBounded(t *testing.T) {
	s := NewServer(nil)
	s.MaxHistory = 10
	s.Register("j", "a", "s", "app")
	for i := 0; i < 25; i++ {
		_ = s.Ingest(protocol.Telemetry{JobID: "j", Time: float64(i), State: "running"})
	}
	hist, _, _ := s.Snapshot("j")
	if len(hist) != 10 {
		t.Fatalf("history len=%d, want 10", len(hist))
	}
	if hist[0].Time != 15 {
		t.Fatalf("oldest sample=%v, want 15 (trimmed from the front)", hist[0].Time)
	}
}

// watchCollect connects as a watcher and collects samples until the
// stream ends.
func watchCollect(t *testing.T, addr, jobID string, fromStart bool) []protocol.Telemetry {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := protocol.WriteFrame(conn, protocol.TypeWatchReq, protocol.WatchReq{JobID: jobID, FromStart: fromStart, Token: "tok"}); err != nil {
		t.Fatal(err)
	}
	f, err := protocol.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type == protocol.TypeError {
		var e protocol.ErrorBody
		_ = protocol.Decode(f, protocol.TypeError, &e)
		t.Fatalf("watch refused: %s", e.Message)
	}
	var out []protocol.Telemetry
	for {
		f, err := protocol.ReadFrame(conn)
		if err != nil {
			t.Fatalf("stream broke: %v", err)
		}
		if f.Type == protocol.TypeWatchEnd {
			return out
		}
		var tm protocol.Telemetry
		if err := protocol.Decode(f, protocol.TypeTelemetry, &tm); err != nil {
			t.Fatal(err)
		}
		out = append(out, tm)
	}
}

func TestWatchOverNetwork(t *testing.T) {
	s, addr := startServer(t, nil)
	s.Register("j1", "alice", "turing", "namd")
	for i := 0; i < 3; i++ {
		_ = s.Ingest(protocol.Telemetry{JobID: "j1", Time: float64(i), State: "running", Output: "step"})
	}
	_ = s.Ingest(protocol.Telemetry{JobID: "j1", Time: 3, State: "finished"})
	got := watchCollect(t, addr, "j1", true)
	if len(got) != 4 {
		t.Fatalf("got %d samples, want 4", len(got))
	}
	if got[3].State != "finished" {
		t.Fatalf("last state=%q", got[3].State)
	}
}

func TestMultipleSimultaneousWatchers(t *testing.T) {
	s, addr := startServer(t, nil)
	s.Register("j1", "alice", "turing", "namd")
	_ = s.Ingest(protocol.Telemetry{JobID: "j1", Time: 0, State: "running"})

	results := make(chan int, 3)
	for w := 0; w < 3; w++ {
		go func() {
			got := watchCollect(t, addr, "j1", true)
			results <- len(got)
		}()
	}
	// Wait until all three watchers are subscribed, then finish the job.
	deadline := time.Now().Add(5 * time.Second)
	for s.Watchers("j1") < 3 {
		if time.Now().After(deadline) {
			t.Fatal("watchers never subscribed")
		}
		time.Sleep(time.Millisecond)
	}
	_ = s.Ingest(protocol.Telemetry{JobID: "j1", Time: 1, State: "running"})
	_ = s.Ingest(protocol.Telemetry{JobID: "j1", Time: 2, State: "finished"})
	for i := 0; i < 3; i++ {
		if n := <-results; n != 3 {
			t.Fatalf("watcher %d saw %d samples, want 3", i, n)
		}
	}
}

func TestWatchCompletedJobGetsHistoryOnly(t *testing.T) {
	s, addr := startServer(t, nil)
	s.Register("j", "a", "s", "app")
	_ = s.Ingest(protocol.Telemetry{JobID: "j", Time: 0, State: "running"})
	_ = s.Ingest(protocol.Telemetry{JobID: "j", Time: 1, State: "finished"})
	got := watchCollect(t, addr, "j", true)
	if len(got) != 2 {
		t.Fatalf("got %d", len(got))
	}
}

func TestWatchUnknownJobError(t *testing.T) {
	_, addr := startServer(t, nil)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = protocol.WriteFrame(conn, protocol.TypeWatchReq, protocol.WatchReq{JobID: "ghost"})
	f, err := protocol.ReadFrame(conn)
	if err != nil || f.Type != protocol.TypeError {
		t.Fatalf("frame=%+v err=%v", f, err)
	}
}

func TestWatchAuthRejected(t *testing.T) {
	verify := func(token string) (string, error) {
		if token == "good" {
			return "alice", nil
		}
		return "", errors.New("bad token")
	}
	s, addr := startServer(t, verify)
	s.Register("j", "alice", "s", "app")
	conn, _ := net.Dial("tcp", addr)
	defer conn.Close()
	_ = protocol.WriteFrame(conn, protocol.TypeWatchReq, protocol.WatchReq{JobID: "j", Token: "bad"})
	f, err := protocol.ReadFrame(conn)
	if err != nil || f.Type != protocol.TypeError {
		t.Fatalf("unauthenticated watch accepted: %+v %v", f, err)
	}
}

func TestNetworkRegisterAndTelemetry(t *testing.T) {
	s, addr := startServer(t, nil)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Registration and telemetry are both one-way, on one connection.
	err = protocol.WriteFrame(conn, protocol.TypeASRegisterReq,
		protocol.ASRegisterReq{JobID: "j9", Owner: "bob", Server: "s", App: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if err := protocol.WriteFrame(conn, protocol.TypeTelemetry, protocol.Telemetry{JobID: "j9", Time: 1, State: "finished"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		hist, done, err := s.Snapshot("j9")
		if err == nil && done && len(hist) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("telemetry never ingested: %v %v %v", hist, done, err)
		}
		time.Sleep(time.Millisecond)
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

// TestTrackRefusesAfterClose: a connection accepted after Close has
// begun must be refused and closed by the accept loop, never handed to
// a handler that Close would then wait on for as long as the peer kept
// the connection busy (the rule is protocol.Server's; this pins that
// the monitor's Close reaches it).
func TestTrackRefusesAfterClose(t *testing.T) {
	s := NewServer(nil)
	s.Close()
	ours, theirs := net.Pipe()
	defer theirs.Close()
	s.Serve(&lateListener{conn: ours})
	_ = theirs.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := theirs.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("late connection not closed by the accept loop: read err = %v, want EOF", err)
	}
}

// referenceUtilization is the full walk over every stream that Register
// and Ingest used to end in, kept as the oracle for the incremental
// aggregates that replaced it.
func referenceUtilization(s *Server) Utilization {
	s.mu.Lock()
	defer s.mu.Unlock()
	u := Utilization{Jobs: len(s.jobs)}
	utilSum := 0.0
	for _, js := range s.jobs {
		u.Watchers += len(js.watchers)
		if js.done || len(js.history) == 0 {
			continue
		}
		last := js.history[len(js.history)-1]
		u.LiveJobs++
		u.PEs += last.PEs
		utilSum += last.Util
	}
	if u.LiveJobs > 0 {
		u.MeanUtil = utilSum / float64(u.LiveJobs)
	}
	return u
}

// checkAggregates compares the incremental aggregates — and the gauges
// fed from them — with the reference walk.
func checkAggregates(t *testing.T, s *Server, step int) {
	t.Helper()
	got, want := s.Utilization(), referenceUtilization(s)
	if got.Jobs != want.Jobs || got.LiveJobs != want.LiveJobs || got.PEs != want.PEs || got.Watchers != want.Watchers ||
		math.Abs(got.MeanUtil-want.MeanUtil) > 1e-9 {
		t.Fatalf("step %d: aggregates %+v, full walk %+v", step, got, want)
	}
	if l, w := s.met.liveJobs.Value(), s.met.watchers.Value(); l != float64(want.LiveJobs) || w != float64(want.Watchers) {
		t.Fatalf("step %d: gauges live=%v watchers=%v, full walk %+v", step, l, w, want)
	}
}

// TestAggregatesMatchFullWalkProperty drives a seeded random mix of
// every operation that touches a stream and checks after each one that
// Utilization() is what the full walk computes, and that a stream's end
// takes its whole contribution with it.
func TestAggregatesMatchFullWalkProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	s := NewServer(nil)
	s.MaxHistory = 4
	s.MaxFinished = 8 // small, so eviction is part of the mix
	type sub struct {
		id string
		ch chan protocol.Telemetry
	}
	var subs []sub
	id := func() string { return fmt.Sprintf("j%d", rng.Intn(40)) }
	for step := 0; step < 10000; step++ {
		switch op := rng.Intn(10); {
		case op < 2:
			s.Register(id(), "u", "srv", "app")
		case op < 6:
			_ = s.Ingest(protocol.Telemetry{JobID: id(), PEs: rng.Intn(64), Util: rng.Float64(), State: "running"})
		case op < 7:
			_ = s.Ingest(protocol.Telemetry{JobID: id(), State: []string{"finished", "killed", "rejected"}[rng.Intn(3)]})
		case op < 9:
			jid := id()
			s.mu.Lock()
			_, known := s.jobs[jid]
			s.mu.Unlock()
			if !known {
				break // subscribe would wait registerWait for it
			}
			if _, ch, err := s.subscribe(jid, false); err == nil && ch != nil {
				subs = append(subs, sub{jid, ch})
			}
		default:
			if len(subs) > 0 {
				i := rng.Intn(len(subs))
				s.unsubscribe(subs[i].id, subs[i].ch)
				subs = append(subs[:i], subs[i+1:]...)
			}
		}
		checkAggregates(t, s, step)
	}
	// End every stream still live: nothing may be left behind.
	for i := 0; i < 40; i++ {
		_ = s.Ingest(protocol.Telemetry{JobID: fmt.Sprintf("j%d", i), State: "finished"})
	}
	checkAggregates(t, s, -1)
	if u := s.Utilization(); u.LiveJobs != 0 || u.PEs != 0 || u.MeanUtil != 0 || u.Watchers != 0 {
		t.Fatalf("contributions outlived their streams: %+v", u)
	}
}

// TestFinishedStreamsBounded: the monitor keeps MaxFinished ended
// streams, evicting the oldest; a live stream is never evicted, and a
// just-completed one stays watchable.
func TestFinishedStreamsBounded(t *testing.T) {
	s := NewServer(nil)
	s.MaxFinished = 64
	s.Register("live", "u", "srv", "app")
	_ = s.Ingest(protocol.Telemetry{JobID: "live", PEs: 4, Util: 0.5, State: "running"})
	for i := 0; i < 3*s.MaxFinished; i++ {
		id := fmt.Sprintf("j%d", i)
		s.Register(id, "u", "srv", "app")
		_ = s.Ingest(protocol.Telemetry{JobID: id, PEs: 2, Util: 0.9, State: "running"})
		_ = s.Ingest(protocol.Telemetry{JobID: id, State: "finished"})
		checkAggregates(t, s, i)
		if n := len(s.Jobs()); n > s.MaxFinished+1 {
			t.Fatalf("after %d jobs the monitor holds %d streams, cap %d + 1 live", i+1, n, s.MaxFinished)
		}
		if _, done, err := s.Snapshot(id); err != nil || !done {
			t.Fatalf("just-completed %s not watchable: done=%v err=%v", id, done, err)
		}
	}
	if _, _, err := s.Snapshot("j0"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("oldest finished stream survived eviction: %v", err)
	}
	if _, done, err := s.Snapshot("live"); err != nil || done {
		t.Fatalf("live stream evicted or ended: done=%v err=%v", done, err)
	}
	if u := s.Utilization(); u.LiveJobs != 1 || u.PEs != 4 {
		t.Fatalf("utilization=%+v, want the one live job", u)
	}
}

// TestWatchWaitsForRegistrationInFlight: the FD announces a job one-way,
// so a client that watches the instant it holds SubmitOK can arrive
// first. The watch waits for the registration — and still refuses a job
// that never existed, within registerWait.
func TestWatchWaitsForRegistrationInFlight(t *testing.T) {
	s, addr := startServer(t, nil)
	go func() {
		time.Sleep(20 * time.Millisecond)
		s.Register("late", "alice", "turing", "namd")
		_ = s.Ingest(protocol.Telemetry{JobID: "late", State: "finished"})
	}()
	if got := watchCollect(t, addr, "late", true); len(got) != 1 {
		t.Fatalf("watch ahead of its registration saw %d samples, want 1", len(got))
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	_ = protocol.WriteFrame(conn, protocol.TypeWatchReq, protocol.WatchReq{JobID: "ghost"})
	_ = conn.SetReadDeadline(start.Add(registerWait + 2*time.Second))
	f, err := protocol.ReadFrame(conn)
	if err != nil || f.Type != protocol.TypeError {
		t.Fatalf("frame=%+v err=%v", f, err)
	}
	if took := time.Since(start); took < registerWait/2 {
		t.Fatalf("unknown job refused after %v: the watch did not wait for a registration", took)
	}
}

// TestCloseReleasesWaitingWatch: a watch parked on a registration that
// never comes must not hold Close for registerWait.
func TestCloseReleasesWaitingWatch(t *testing.T) {
	s, addr := startServer(t, nil)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = protocol.WriteFrame(conn, protocol.TypeWatchReq, protocol.WatchReq{JobID: "ghost"})
	deadline := time.Now().Add(5 * time.Second)
	for s.met.watchReq.Value() == 0 { // the handler has reached the watch path
		if time.Now().After(deadline) {
			t.Fatal("watch never served")
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	s.Close()
	if took := time.Since(start); took > registerWait/2 {
		t.Fatalf("Close took %v with a watch waiting for a registration", took)
	}
}

// BenchmarkRegisterIngest is one job's cost to the monitor — a
// registration, a running sample and the terminal one — with held_N
// finished streams already in the table. The two cases reading the same
// is the proof that nothing on that path walks the table.
func BenchmarkRegisterIngest(b *testing.B) {
	for _, held := range []int{0, 10000} {
		b.Run(fmt.Sprintf("held_%d", held), func(b *testing.B) {
			s := NewServer(nil)
			s.MaxFinished = held + 1 // hold exactly `held` beside the job being timed
			ids := make([]string, b.N+held)
			for i := range ids {
				ids[i] = fmt.Sprintf("job-%08d", i)
			}
			job := func(id string) {
				s.Register(id, "alice", "turing", "namd")
				_ = s.Ingest(protocol.Telemetry{JobID: id, PEs: 8, Util: 0.9, State: "running"})
				_ = s.Ingest(protocol.Telemetry{JobID: id, PEs: 8, State: "finished"})
			}
			for _, id := range ids[:held] {
				job(id)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for _, id := range ids[held:] {
				job(id)
			}
		})
	}
}

// failingListener fails its first Accepts, then delegates.
type failingListener struct {
	net.Listener
	failures atomic.Int32
}

func (l *failingListener) Accept() (net.Conn, error) {
	if l.failures.Add(-1) >= 0 {
		return nil, errors.New("accept: too many open files")
	}
	return l.Listener.Accept()
}

// TestServeSurvivesTransientAcceptErrors: one EMFILE must not end
// monitoring for the life of the process. AppSpector rides out a burst
// of accept failures like the other two servers, backing off between
// them (5+10+20 ms for three).
func TestServeSurvivesTransientAcceptErrors(t *testing.T) {
	s := NewServer(nil)
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &failingListener{Listener: inner}
	fl.failures.Store(3)
	start := time.Now()
	done := make(chan struct{})
	go func() {
		s.Serve(fl)
		close(done)
	}()
	t.Cleanup(s.Close)

	conn, err := net.Dial("tcp", inner.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := protocol.WriteFrame(conn, protocol.TypeASRegisterReq, protocol.ASRegisterReq{JobID: "j1", Owner: "alice"}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, _, err := s.Snapshot("j1"); err == nil {
			break
		}
		select {
		case <-done:
			t.Fatalf("Serve returned %v after the first accept error", time.Since(start))
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("registration never served after transient accept errors")
		}
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Fatalf("recovered in %v from 3 accept failures: the loop is spinning, not backing off", elapsed)
	}
}

// TestCloseBeforeServe: a Serve that starts after Close must not accept
// on behalf of a server that is gone.
func TestCloseBeforeServe(t *testing.T) {
	s := NewServer(nil)
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
