package protocol

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"faucets/internal/health"
)

// An OPEN breaker must fail calls immediately — no dial, no timeout.
func TestPoolBreakerOpensAndFailsFast(t *testing.T) {
	// A listener that is closed right away: dials fail with refused.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	dials := atomic.Int64{}
	p := &Pool{
		Retry:  Retry{Attempts: 1},
		Health: health.NewSet(health.Options{Threshold: 2, Cooldown: time.Hour}),
		DialFunc: func(a string, timeout time.Duration) (net.Conn, error) {
			dials.Add(1)
			return Dial(a, timeout)
		},
	}
	defer p.Close()
	for i := 0; i < 2; i++ {
		var reply PollOK
		if err := p.Call(addr, time.Second, TypePollReq, PollReq{}, TypePollOK, &reply); err == nil {
			t.Fatal("call to dead address succeeded")
		}
	}
	before := dials.Load()
	start := time.Now()
	var reply PollOK
	err = p.Call(addr, time.Second, TypePollReq, PollReq{}, TypePollOK, &reply)
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v, want ErrBreakerOpen", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("breaker-open refusal took %v, want instant", d)
	}
	if dials.Load() != before {
		t.Fatal("OPEN breaker still dialed")
	}
}

// Remote refusals prove the transport works: they must not trip the
// breaker.
func TestPoolBreakerRemoteErrorIsSuccess(t *testing.T) {
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
				rc := NewReplyConn(conn)
				for {
					f, err := ReadFrame(conn)
					if err != nil {
						return
					}
					rc.SetID(f.ID)
					_ = WriteErrorFrom(rc, errors.New("refused"))
				}
			}()
		}
	}()
	set := health.NewSet(health.Options{Threshold: 2, Cooldown: time.Hour})
	p := &Pool{Health: set}
	defer p.Close()
	addr := l.Addr().String()
	for i := 0; i < 10; i++ {
		var reply PollOK
		err := p.Call(addr, time.Second, TypePollReq, PollReq{}, TypePollOK, &reply)
		var remote *RemoteError
		if !errors.As(err, &remote) {
			t.Fatalf("call %d: err = %v, want RemoteError", i, err)
		}
	}
	if got := set.State(addr); got != health.Closed {
		t.Fatalf("breaker state after refusals = %v, want closed", got)
	}
}

// After the cooldown a half-open probe goes through, and a healthy
// answer closes the breaker again.
func TestPoolBreakerHalfOpenRecovery(t *testing.T) {
	s := startPoolEcho(t)
	const addr = "virtual:1"
	sick := atomic.Bool{}
	sick.Store(true)
	set := health.NewSet(health.Options{Threshold: 2, Cooldown: 50 * time.Millisecond})
	p := &Pool{
		Retry:  Retry{Attempts: 1},
		Health: set,
		DialFunc: func(a string, timeout time.Duration) (net.Conn, error) {
			if sick.Load() {
				return nil, fmt.Errorf("injected dial failure to %s", a)
			}
			return Dial(s.addr(), timeout)
		},
	}
	defer p.Close()
	for i := 0; i < 2; i++ {
		var reply PollOK
		if err := p.Call(addr, time.Second, TypePollReq, PollReq{}, TypePollOK, &reply); err == nil {
			t.Fatal("sick call succeeded")
		}
	}
	if got := set.State(addr); got != health.Open {
		t.Fatalf("state = %v, want open", got)
	}
	sick.Store(false)
	time.Sleep(80 * time.Millisecond)
	var reply PollOK
	if err := p.Call(addr, time.Second, TypePollReq, PollReq{}, TypePollOK, &reply); err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	if got := set.State(addr); got != health.Closed {
		t.Fatalf("state after good probe = %v, want closed", got)
	}
}
