package protocol

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"faucets/internal/chaos"
)

// countingPoolObs records pool lifecycle events for assertions.
type countingPoolObs struct {
	open      atomic.Int64
	checkouts atomic.Int64
	redials   atomic.Int64
	reaps     atomic.Int64
}

func (o *countingPoolObs) PoolConnOpen(delta int) { o.open.Add(int64(delta)) }
func (o *countingPoolObs) PoolCheckout()          { o.checkouts.Add(1) }
func (o *countingPoolObs) PoolRedial()            { o.redials.Add(1) }
func (o *countingPoolObs) PoolIdleReap()          { o.reaps.Add(1) }

// poolEchoServer answers PollReq with PollOK on every accepted
// connection, echoing frame IDs so pipelined callers demultiplex the
// replies. It counts accepted connections and the frames it reads,
// and how many of those arrived binary.
type poolEchoServer struct {
	l         net.Listener
	accepts   atomic.Int64
	frames    atomic.Int64
	binFrames atomic.Int64
}

func startPoolEcho(t *testing.T) *poolEchoServer {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	s := &poolEchoServer{l: l}
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			s.accepts.Add(1)
			go func() {
				defer conn.Close()
				rc := NewReplyConn(conn)
				for {
					f, err := ReadFrame(conn)
					if err != nil {
						return
					}
					s.frames.Add(1)
					if f.Codec() == CodecBinary {
						s.binFrames.Add(1)
					}
					rc.SetID(f.ID)
					if f.Type != TypePollReq {
						_ = WriteError(rc, "unexpected "+f.Type)
						continue
					}
					_ = WriteFrame(rc, TypePollOK, PollOK{UsedPE: 7})
				}
			}()
		}
	}()
	return s
}

func (s *poolEchoServer) addr() string { return s.l.Addr().String() }

// waitConns polls until the pool reports want open connections.
func waitConns(t *testing.T, p *Pool, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for p.OpenConns() != want {
		if time.Now().After(deadline) {
			t.Fatalf("pool still holds %d conns, want %d", p.OpenConns(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestPoolFreshCallSendsOnlyTheRequest: the first call on a fresh pooled
// connection puts exactly one frame on the wire — the caller's request,
// already in the binary encoding its type has — with no handshake frame
// ahead of it.
func TestPoolFreshCallSendsOnlyTheRequest(t *testing.T) {
	s := startPoolEcho(t)
	p := &Pool{}
	defer p.Close()
	var reply PollOK
	if err := p.Call(s.addr(), time.Second, TypePollReq, PollReq{}, TypePollOK, &reply); err != nil {
		t.Fatal(err)
	}
	if frames, bin := s.frames.Load(), s.binFrames.Load(); frames != 1 || bin != 1 {
		t.Fatalf("fresh call delivered %d frames (%d binary), want exactly 1 binary request", frames, bin)
	}
}

// TestPoolReusesConnection: sequential calls must share one persistent
// connection instead of dialing per call.
func TestPoolReusesConnection(t *testing.T) {
	s := startPoolEcho(t)
	p := &Pool{}
	defer p.Close()
	for i := 0; i < 5; i++ {
		var reply PollOK
		if err := p.Call(s.addr(), time.Second, TypePollReq, PollReq{}, TypePollOK, &reply); err != nil {
			t.Fatal(err)
		}
		if reply.UsedPE != 7 {
			t.Fatalf("reply=%+v", reply)
		}
	}
	if got := s.accepts.Load(); got != 1 {
		t.Fatalf("5 calls used %d connections, want 1", got)
	}
}

// TestPoolPipelinesOneConnection: with Size 1, concurrent calls share
// the single connection via frame-ID multiplexing — they must all
// succeed without opening a second connection.
func TestPoolPipelinesOneConnection(t *testing.T) {
	s := startPoolEcho(t)
	p := &Pool{Size: 1}
	defer p.Close()
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var reply PollOK
			errs[i] = p.Call(s.addr(), 2*time.Second, TypePollReq, PollReq{}, TypePollOK, &reply)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if got := s.accepts.Load(); got != 1 {
		t.Fatalf("pipelined calls opened %d connections, want 1", got)
	}
}

// TestPoolHonorsSize: concurrent calls may open connections up to Size
// and no further.
func TestPoolHonorsSize(t *testing.T) {
	s := startPoolEcho(t)
	p := &Pool{Size: 3}
	defer p.Close()
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var reply PollOK
			_ = p.Call(s.addr(), 2*time.Second, TypePollReq, PollReq{}, TypePollOK, &reply)
		}()
	}
	wg.Wait()
	if got := s.accepts.Load(); got > 3 {
		t.Fatalf("pool opened %d connections, cap is 3", got)
	}
}

// TestPoolIdleReap: an unused connection must be closed by the reaper
// and reported to the observer.
func TestPoolIdleReap(t *testing.T) {
	s := startPoolEcho(t)
	obs := &countingPoolObs{}
	p := &Pool{IdleTimeout: 30 * time.Millisecond, PoolObs: obs}
	defer p.Close()
	var reply PollOK
	if err := p.Call(s.addr(), time.Second, TypePollReq, PollReq{}, TypePollOK, &reply); err != nil {
		t.Fatal(err)
	}
	waitConns(t, p, 0)
	if obs.reaps.Load() == 0 {
		t.Fatal("idle reap not observed")
	}
	if obs.open.Load() != 0 {
		t.Fatalf("open-conn gauge drifted to %d, want 0", obs.open.Load())
	}
	// The pool stays usable after a reap.
	if err := p.Call(s.addr(), time.Second, TypePollReq, PollReq{}, TypePollOK, &reply); err != nil {
		t.Fatal(err)
	}
}

// TestPoolRedialsBrokenConnection: a server that hangs up mid-call
// forces a redial under the Retry policy; the call still succeeds and
// the redial is observed.
func TestPoolRedialsBrokenConnection(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var accepts atomic.Int64
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			n := accepts.Add(1)
			go func() {
				defer conn.Close()
				rc := NewReplyConn(conn)
				for {
					f, err := ReadFrame(conn)
					if err != nil {
						return
					}
					if n == 1 {
						return // first connection: hang up without answering
					}
					rc.SetID(f.ID)
					_ = WriteFrame(rc, TypePollOK, PollOK{UsedPE: 9})
				}
			}()
		}
	}()

	obs := &countingPoolObs{}
	p := &Pool{
		PoolObs: obs,
		Retry:   Retry{Attempts: 3, Base: 5 * time.Millisecond, Max: 20 * time.Millisecond},
	}
	defer p.Close()
	var reply PollOK
	if err := p.Call(l.Addr().String(), time.Second, TypePollReq, PollReq{}, TypePollOK, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.UsedPE != 9 {
		t.Fatalf("reply=%+v", reply)
	}
	if obs.redials.Load() == 0 {
		t.Fatal("redial not observed")
	}
	if accepts.Load() < 2 {
		t.Fatalf("server saw %d connections, want ≥2", accepts.Load())
	}
}

// TestPoolCallDeadlineKillsConnection: a peer that accepts requests but
// never answers costs the caller at most the deadline, and the hung
// connection must not be handed to later calls.
func TestPoolCallDeadlineKillsConnection(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					if _, err := ReadFrame(conn); err != nil {
						return // swallow requests silently
					}
				}
			}()
		}
	}()
	p := &Pool{Retry: Retry{Attempts: 1}}
	defer p.Close()
	start := time.Now()
	var reply PollOK
	err = p.Call(l.Addr().String(), 50*time.Millisecond, TypePollReq, PollReq{}, TypePollOK, &reply)
	if err == nil {
		t.Fatal("call to silent peer succeeded")
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("deadline took %v to fire", took)
	}
	waitConns(t, p, 0)
}

// TestPoolRemoteErrorAbortsAndKeepsConnection: a refusal from the peer
// is a *RemoteError, is not retried, and leaves the (healthy)
// connection pooled.
func TestPoolRemoteErrorAbortsAndKeepsConnection(t *testing.T) {
	s := startPoolEcho(t)
	p := &Pool{}
	defer p.Close()
	var reply WeatherOK
	err := p.Call(s.addr(), time.Second, TypeWeatherReq, WeatherReq{}, TypeWeatherOK, &reply)
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("want RemoteError, got %v", err)
	}
	if got := s.accepts.Load(); got != 1 {
		t.Fatalf("remote refusal consumed %d connections, want 1", got)
	}
	if p.OpenConns() != 1 {
		t.Fatalf("refused call evicted the healthy connection (open=%d)", p.OpenConns())
	}
	// The same connection still answers well-formed calls.
	var ok PollOK
	if err := p.Call(s.addr(), time.Second, TypePollReq, PollReq{}, TypePollOK, &ok); err != nil {
		t.Fatal(err)
	}
	if got := s.accepts.Load(); got != 1 {
		t.Fatalf("follow-up call dialed a new connection (accepts=%d)", got)
	}
}

// TestPoolCloseFailsFutureCalls: Close severs pooled connections and
// future Calls fail with ErrPoolClosed instead of redialing.
func TestPoolCloseFailsFutureCalls(t *testing.T) {
	s := startPoolEcho(t)
	p := &Pool{}
	var reply PollOK
	if err := p.Call(s.addr(), time.Second, TypePollReq, PollReq{}, TypePollOK, &reply); err != nil {
		t.Fatal(err)
	}
	p.Close()
	err := p.Call(s.addr(), time.Second, TypePollReq, PollReq{}, TypePollOK, &reply)
	if !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("want ErrPoolClosed, got %v", err)
	}
	if p.OpenConns() != 0 {
		t.Fatalf("closed pool still holds %d conns", p.OpenConns())
	}
}

// TestPoolObserverAccounting: the open-conn gauge and checkout counter
// reflect a simple call sequence.
func TestPoolObserverAccounting(t *testing.T) {
	s := startPoolEcho(t)
	obs := &countingPoolObs{}
	p := &Pool{PoolObs: obs}
	var reply PollOK
	for i := 0; i < 3; i++ {
		if err := p.Call(s.addr(), time.Second, TypePollReq, PollReq{}, TypePollOK, &reply); err != nil {
			t.Fatal(err)
		}
	}
	if obs.checkouts.Load() != 3 {
		t.Fatalf("checkouts=%d, want 3", obs.checkouts.Load())
	}
	if obs.open.Load() != 1 {
		t.Fatalf("open gauge=%d, want 1", obs.open.Load())
	}
	p.Close()
	if obs.open.Load() != 0 {
		t.Fatalf("open gauge=%d after Close, want 0", obs.open.Load())
	}
}

// TestPoolPartitionEvictsAndHeals: a pooled connection caught in a
// chaos partition must fail fast (evicting the broken connection, not
// wedging the caller), and the first Call after the heal must succeed.
func TestPoolPartitionEvictsAndHeals(t *testing.T) {
	inj := chaos.New(chaos.Config{Seed: 42})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	wl := inj.WrapListener(l)
	go func() {
		for {
			conn, err := wl.Accept()
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
					_ = WriteFrame(rc, TypePollOK, PollOK{UsedPE: 5})
				}
			}()
		}
	}()

	p := &Pool{Retry: Retry{Attempts: 2, Base: 5 * time.Millisecond, Max: 20 * time.Millisecond}}
	defer p.Close()
	addr := l.Addr().String()
	var reply PollOK
	if err := p.Call(addr, time.Second, TypePollReq, PollReq{}, TypePollOK, &reply); err != nil {
		t.Fatal(err)
	}
	if p.OpenConns() != 1 {
		t.Fatalf("open=%d before partition, want 1", p.OpenConns())
	}

	inj.Partition(true)
	start := time.Now()
	if err := p.Call(addr, 5*time.Second, TypePollReq, PollReq{}, TypePollOK, &reply); err == nil {
		t.Fatal("call through open partition succeeded")
	}
	// Fail fast: the severed connection delivers the error well before
	// the 5s per-call deadline would.
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("partitioned call took %v, expected fast failure", took)
	}
	waitConns(t, p, 0)

	inj.Partition(false)
	if err := p.Call(addr, time.Second, TypePollReq, PollReq{}, TypePollOK, &reply); err != nil {
		t.Fatalf("call after heal: %v", err)
	}
	if reply.UsedPE != 5 {
		t.Fatalf("reply=%+v", reply)
	}
}

// rpcObsRecorder records what an Observer is told.
type rpcObsRecorder struct {
	mu    sync.Mutex
	types []string
	errs  []error
}

func (r *rpcObsRecorder) ObserveRPC(reqType string, d time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.types = append(r.types, reqType)
	r.errs = append(r.errs, err)
}

// TestPoolCallObservesOutcome: success and dial failure are both
// observed — a failed dial must reach the Observer (feeding
// faucets_rpc_errors_total), not just the caller.
func TestPoolCallObservesOutcome(t *testing.T) {
	s := startPoolEcho(t)
	obs := &rpcObsRecorder{}
	p := &Pool{Obs: obs, Retry: Retry{Attempts: 1}, DialTimeout: 200 * time.Millisecond}
	defer p.Close()
	var reply PollOK
	if err := p.Call(s.addr(), time.Second, TypePollReq, PollReq{}, TypePollOK, &reply); err != nil {
		t.Fatal(err)
	}
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()
	if err := p.Call(deadAddr, time.Second, TypePollReq, PollReq{}, TypePollOK, &reply); err == nil {
		t.Fatal("call to closed port succeeded")
	}
	obs.mu.Lock()
	defer obs.mu.Unlock()
	if len(obs.errs) != 2 {
		t.Fatalf("observer saw %d calls, want 2", len(obs.errs))
	}
	if obs.errs[0] != nil {
		t.Fatalf("success observed with error %v", obs.errs[0])
	}
	if obs.errs[1] == nil {
		t.Fatal("pooled dial failure not observed")
	}
}
