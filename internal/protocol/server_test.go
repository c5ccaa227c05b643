package protocol

import (
	"errors"
	"io"
	"net"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// pollHandler answers PollReq with PollOK and refuses anything else.
func pollHandler(rc *ReplyConn, f Frame) error {
	if f.Type != TypePollReq {
		return errors.New("unexpected " + f.Type)
	}
	return WriteFrame(rc, TypePollOK, PollOK{UsedPE: 7})
}

func listen(t *testing.T) net.Listener {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// serveOn runs s on a fresh loopback listener, optionally wrapped, and
// returns the address to dial. The server is closed with the test.
func serveOn(t *testing.T, s *Server, wrap func(net.Listener) net.Listener) string {
	t.Helper()
	inner := listen(t)
	l := inner
	if wrap != nil {
		l = wrap(inner)
	}
	go s.Serve(l)
	t.Cleanup(s.Close)
	return inner.Addr().String()
}

// poll makes one PollReq round trip on a fresh connection.
func poll(t *testing.T, addr string) error {
	t.Helper()
	var ok PollOK
	return DialCall(addr, 5*time.Second, TypePollReq, PollReq{}, TypePollOK, &ok)
}

// flakyListener fails Accept with err until its failure budget drains,
// then delegates to the real listener.
type flakyListener struct {
	net.Listener
	err      error
	failures atomic.Int32
	accepts  atomic.Int32
}

func (l *flakyListener) Accept() (net.Conn, error) {
	l.accepts.Add(1)
	if l.failures.Add(-1) >= 0 {
		return nil, l.err
	}
	return l.Listener.Accept()
}

func flaky(failures int32, err error) (*flakyListener, func(net.Listener) net.Listener) {
	fl := &flakyListener{err: err}
	fl.failures.Store(failures)
	return fl, func(inner net.Listener) net.Listener {
		fl.Listener = inner
		return fl
	}
}

var errEMFILE = &net.OpError{Op: "accept", Net: "tcp", Err: syscall.EMFILE}

// TestServeSurvivesTransientAcceptErrors: a burst of EMFILE-style
// Accept failures must not end the accept loop.
func TestServeSurvivesTransientAcceptErrors(t *testing.T) {
	fl, wrap := flaky(3, errors.New("accept: too many open files"))
	addr := serveOn(t, NewServer("test", pollHandler, nil), wrap)
	if err := poll(t, addr); err != nil {
		t.Fatalf("server never recovered from transient accept errors: %v", err)
	}
	if fl.failures.Load() > 0 {
		t.Fatal("flaky listener never exercised its failures")
	}
}

// TestServeBacksOffUnderFDExhaustion: a run of EMFILE failures must be
// absorbed by the doubling backoff — the loop recovers once descriptors
// free up, and the retry cadence proves it slept rather than spun.
func TestServeBacksOffUnderFDExhaustion(t *testing.T) {
	_, wrap := flaky(5, errEMFILE)
	start := time.Now()
	addr := serveOn(t, NewServer("test", pollHandler, nil), wrap)
	if err := poll(t, addr); err != nil {
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
	s := NewServer("test", pollHandler, nil)
	fl, wrap := flaky(1<<30, errEMFILE) // effectively permanent exhaustion
	l := wrap(listen(t))
	done := make(chan struct{})
	go func() {
		s.Serve(l)
		close(done)
	}()
	// Let the loop hit EMFILE and start climbing the backoff ladder.
	for fl.accepts.Load() < 3 {
		time.Sleep(time.Millisecond)
	}
	s.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Serve still running after Close during backoff")
	}
}

// TestCloseBeforeServeClosesListener: a Close that runs before Serve
// has stored its listener cannot close it, so Serve must — otherwise it
// accepts forever on behalf of a server that is gone.
func TestCloseBeforeServeClosesListener(t *testing.T) {
	s := NewServer("test", pollHandler, nil)
	l := listen(t)
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
		t.Fatalf("listener left open: Accept err = %v, want net.ErrClosed", err)
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
	s := NewServer("test", pollHandler, nil)
	s.Close()
	ours, theirs := net.Pipe()
	defer theirs.Close()
	if s.Track(ours) {
		t.Fatal("Track accepted a connection after Close")
	}
	s.Serve(&lateListener{conn: ours})
	_ = theirs.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := theirs.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("late connection not closed by the accept loop: read err = %v, want EOF", err)
	}
}

// TestCloseSeversTrackedOutboundConn: a connection a component dialed
// and tracked (the daemon's monitor stream) is closed by Close, which
// is what ends a write blocked on a peer that stopped reading.
func TestCloseSeversTrackedOutboundConn(t *testing.T) {
	s := NewServer("test", pollHandler, nil)
	ours, theirs := net.Pipe() // unbuffered: a write blocks until it is read
	defer theirs.Close()
	if !s.Track(ours) {
		t.Fatal("Track refused a connection before Close")
	}
	wrote := make(chan error, 1)
	go func() {
		_, err := ours.Write([]byte("nobody reads this"))
		wrote <- err
	}()
	s.Close()
	select {
	case err := <-wrote:
		if err == nil {
			t.Fatal("blocked write succeeded")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close left a tracked connection's write blocked")
	}
	s.Untrack(ours) // after Close, and twice, is harmless
	s.Untrack(ours)
}

// TestErrConnDoneEndsConnectionWithoutErrorFrame: the sentinel closes
// the connection after whatever the handler wrote, with no error frame.
func TestErrConnDoneEndsConnectionWithoutErrorFrame(t *testing.T) {
	addr := serveOn(t, NewServer("test", func(rc *ReplyConn, f Frame) error {
		_ = WriteFrame(rc, TypeWatchEnd, nil)
		return ErrConnDone
	}, nil), nil)
	conn, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := WriteFrame(conn, TypeWatchReq, WatchReq{JobID: "j"}); err != nil {
		t.Fatal(err)
	}
	if f, err := ReadFrame(conn); err != nil || f.Type != TypeWatchEnd {
		t.Fatalf("first frame = %q, %v; want the handler's own", f.Type, err)
	}
	if f, err := ReadFrame(conn); err != io.EOF {
		t.Fatalf("after ErrConnDone: frame %q, err %v; want EOF and no error frame", f.Type, err)
	}
}

// TestErrorFrameKeepsMarks: the error frame written for a handler's
// error carries each of rpc.go's three marks across the wire.
func TestErrorFrameKeepsMarks(t *testing.T) {
	cause := errors.New("cause")
	cases := []struct {
		name       string
		err        error
		retryable  bool
		overloaded bool
		owner      string
	}{
		{name: "plain", err: cause},
		{name: "retryable", err: MarkRetryable(cause), retryable: true},
		{name: "overloaded", err: MarkOverloaded(cause), retryable: true, overloaded: true},
		{name: "not owner", err: MarkNotOwner(cause, "10.0.0.2:9100"), owner: "10.0.0.2:9100"},
	}
	next := 0
	addr := serveOn(t, NewServer("test", func(*ReplyConn, Frame) error {
		err := cases[next].err
		next++
		return err
	}, nil), nil)
	conn, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, tc := range cases {
		err := CallTimeout(conn, 5*time.Second, TypePollReq, PollReq{}, TypePollOK, nil)
		var remote *RemoteError
		if !errors.As(err, &remote) {
			t.Fatalf("%s: err = %v, want a RemoteError", tc.name, err)
		}
		owner, redirected := NotOwnerAddr(err)
		if remote.Retryable != tc.retryable || IsOverloaded(err) != tc.overloaded || owner != tc.owner || redirected != (tc.owner != "") {
			t.Fatalf("%s: retryable=%v overloaded=%v owner=%q (%q)", tc.name, remote.Retryable, IsOverloaded(err), owner, remote.Message)
		}
	}
}

// TestServerObserver: a set Observer sees one observation per request,
// with the handler's error; without one the same requests are served.
func TestServerObserver(t *testing.T) {
	for _, obs := range []*rpcObsRecorder{nil, {}} {
		var o Observer // a nil *rpcObsRecorder must stay a nil interface
		if obs != nil {
			o = obs
		}
		addr := serveOn(t, NewServer("test", pollHandler, o), nil)
		conn, err := Dial(addr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		var ok PollOK
		if err := CallTimeout(conn, 5*time.Second, TypePollReq, PollReq{}, TypePollOK, &ok); err != nil || ok.UsedPE != 7 {
			t.Fatalf("poll: %+v, %v", ok, err)
		}
		if err := CallTimeout(conn, 5*time.Second, TypeWeatherReq, nil, TypeWeatherOK, nil); err == nil {
			t.Fatal("refused request succeeded")
		}
		if obs == nil {
			continue
		}
		obs.mu.Lock()
		if len(obs.types) != 2 || obs.types[0] != TypePollReq || obs.types[1] != TypeWeatherReq ||
			obs.errs[0] != nil || obs.errs[1] == nil || obs.errs[1].Error() != "unexpected "+TypeWeatherReq {
			t.Fatalf("observed %v / %v, want one per request with the handler's error", obs.types, obs.errs)
		}
		obs.mu.Unlock()
	}
}
