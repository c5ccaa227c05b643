package protocol

import (
	"errors"
	"net"
	"testing"
	"time"
)

// echoPeer answers every frame of type reqType with wantReply on the
// far end of a pipe, until the pipe closes.
func echoPeer(conn net.Conn, reqType, replyType string, body any) {
	rc := NewReplyConn(conn)
	for {
		f, err := ReadFrame(conn)
		if err != nil {
			return
		}
		rc.SetID(f.ID)
		if f.Type != reqType {
			_ = WriteError(rc, "unexpected "+f.Type)
			continue
		}
		_ = WriteFrame(rc, replyType, body)
	}
}

func TestCallTimeoutStalledReader(t *testing.T) {
	// The peer accepts the connection but never reads a byte: with
	// net.Pipe even the request write blocks, so only the deadline can
	// unstick the caller.
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()

	start := time.Now()
	var reply PollOK
	err := CallTimeout(client, 50*time.Millisecond, TypePollReq, PollReq{}, TypePollOK, &reply)
	if err == nil {
		t.Fatal("call against a stalled peer succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline did not bound the call: %v", elapsed)
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("want a timeout error, got %v", err)
	}
}

func TestCallTimeoutSilentPeer(t *testing.T) {
	// The peer reads the request but never answers: the reply read must
	// hit the same deadline.
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	go func() {
		_, _ = ReadFrame(server) // swallow the request, never reply
	}()

	var reply PollOK
	err := CallTimeout(client, 50*time.Millisecond, TypePollReq, PollReq{}, TypePollOK, &reply)
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("want a timeout error, got %v", err)
	}
}

func TestCallTimeoutClearsDeadlineForReuse(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	go echoPeer(server, TypePollReq, TypePollOK, PollOK{UsedPE: 3})

	for i := 0; i < 2; i++ {
		var reply PollOK
		if err := CallTimeout(client, time.Second, TypePollReq, PollReq{}, TypePollOK, &reply); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if reply.UsedPE != 3 {
			t.Fatalf("call %d: reply=%+v", i, reply)
		}
	}
	// The deadline must be cleared after the round trip: a read long
	// after the original deadline would otherwise fail instantly.
	time.Sleep(10 * time.Millisecond)
	var reply PollOK
	if err := CallTimeout(client, time.Second, TypePollReq, PollReq{}, TypePollOK, &reply); err != nil {
		t.Fatalf("reuse after deadline window: %v", err)
	}
}

func TestCallErrorFrameIsRemoteError(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	go func() {
		f, _ := ReadFrame(server)
		rc := NewReplyConn(server)
		rc.SetID(f.ID)
		_ = WriteError(rc, "no such job")
	}()

	var reply PollOK
	err := CallTimeout(client, time.Second, TypePollReq, PollReq{}, TypePollOK, &reply)
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("want *RemoteError, got %T: %v", err, err)
	}
	if remote.Message != "no such job" {
		t.Fatalf("message=%q", remote.Message)
	}
}

func TestDialCallRoundTrip(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		echoPeer(conn, TypeWeatherReq, TypeWeatherOK, WeatherOK{Servers: 2})
	}()

	var reply WeatherOK
	if err := DialCall(l.Addr().String(), time.Second, TypeWeatherReq, WeatherReq{}, TypeWeatherOK, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Servers != 2 {
		t.Fatalf("reply=%+v", reply)
	}
	// A dead address fails within the dial timeout instead of hanging.
	if err := DialCall("127.0.0.1:1", 100*time.Millisecond, TypeWeatherReq, WeatherReq{}, TypeWeatherOK, &reply); err == nil {
		t.Fatal("dial against nothing succeeded")
	}
}

func TestTimeoutDefault(t *testing.T) {
	if Timeout(0) != DefaultCallTimeout {
		t.Fatalf("Timeout(0)=%v", Timeout(0))
	}
	if Timeout(time.Second) != time.Second {
		t.Fatalf("Timeout(1s)=%v", Timeout(time.Second))
	}
}

func TestRetryGivesUpAfterAttempts(t *testing.T) {
	calls := 0
	fail := errors.New("transport down")
	r := Retry{Attempts: 4, Base: time.Millisecond, Max: 2 * time.Millisecond}
	err := r.Do(func() error { calls++; return fail })
	if !errors.Is(err, fail) {
		t.Fatalf("err=%v", err)
	}
	if calls != 4 {
		t.Fatalf("calls=%d, want 4", calls)
	}
}

func TestRetrySucceedsMidway(t *testing.T) {
	calls := 0
	r := Retry{Attempts: 5, Base: time.Millisecond, Max: 2 * time.Millisecond}
	err := r.Do(func() error {
		calls++
		if calls < 3 {
			return errors.New("flaky")
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

func TestRetryAbortsOnRemoteError(t *testing.T) {
	calls := 0
	r := Retry{Attempts: 5, Base: time.Millisecond, Max: 2 * time.Millisecond}
	err := r.Do(func() error {
		calls++
		return &RemoteError{Message: "authentication failed"}
	})
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("err=%v", err)
	}
	if calls != 1 {
		t.Fatalf("calls=%d: a refused request must not be retried", calls)
	}
}

func TestRetryStopAbortsWait(t *testing.T) {
	stop := make(chan struct{})
	close(stop)
	calls := 0
	// A long Base would make the test slow if Stop were ignored.
	r := Retry{Attempts: 3, Base: time.Minute, Max: time.Minute, Stop: stop}
	start := time.Now()
	err := r.Do(func() error { calls++; return errors.New("down") })
	if err == nil {
		t.Fatal("want the last error")
	}
	if calls != 1 {
		t.Fatalf("calls=%d, want 1 (stop fired before any retry)", calls)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("Stop did not abort the backoff wait")
	}
}

func TestRetryDelayBounded(t *testing.T) {
	r := Retry{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond}
	for n := 0; n < 64; n++ {
		for i := 0; i < 50; i++ {
			d := r.Delay(n)
			if d <= 0 || d > r.Max {
				t.Fatalf("Delay(%d)=%v, want (0, %v]", n, d, r.Max)
			}
		}
	}
	// Early attempts stay near the base, not the cap: jitter is at most
	// 1.5× the exponential value.
	for i := 0; i < 50; i++ {
		if d := r.Delay(0); d > 15*time.Millisecond {
			t.Fatalf("Delay(0)=%v, want ≤ 1.5×Base", d)
		}
	}
}

func TestRetryZeroValueDefaults(t *testing.T) {
	calls := 0
	var r Retry
	r.Base = time.Millisecond // keep the test fast; attempts stay default
	r.Max = 2 * time.Millisecond
	_ = r.Do(func() error { calls++; return errors.New("x") })
	if calls != 3 {
		t.Fatalf("calls=%d, want the default 3 attempts", calls)
	}
}
