package appspector

import (
	"errors"
	"io"
	"net"
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
	var reply protocol.ASRegisterOK
	err = protocol.Call(conn, protocol.TypeASRegisterReq,
		protocol.ASRegisterReq{JobID: "j9", Owner: "bob", Server: "s", App: "a"},
		protocol.TypeASRegisterOK, &reply)
	if err != nil {
		t.Fatal(err)
	}
	// Fire-and-forget telemetry on the same connection.
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
// the connection busy.
func TestTrackRefusesAfterClose(t *testing.T) {
	s := NewServer(nil)
	s.Close()
	ours, theirs := net.Pipe()
	defer theirs.Close()
	if s.track(ours, true) {
		t.Fatal("track accepted a connection after Close")
	}
	s.Serve(&lateListener{conn: ours})
	_ = theirs.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := theirs.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("late connection not closed by the accept loop: read err = %v, want EOF", err)
	}
}
