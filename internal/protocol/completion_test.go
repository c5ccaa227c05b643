package protocol

import (
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"faucets/internal/chaos"
)

// These tests pin the promises the completion-based pool must keep:
// Start and Call are one path (same accounting, same deadline, same
// redial), and every call completes exactly once whatever ends it.

// hookPoolObs is a countingPoolObs with hooks on the two events the
// tests need to act inside of.
type hookPoolObs struct {
	countingPoolObs
	onOpen   func()
	onRedial func()
}

func (o *hookPoolObs) PoolConnOpen(delta int) {
	o.countingPoolObs.PoolConnOpen(delta)
	if delta > 0 && o.onOpen != nil {
		o.onOpen()
	}
}

func (o *hookPoolObs) PoolRedial() {
	o.countingPoolObs.PoolRedial()
	if o.onRedial != nil {
		o.onRedial()
	}
}

// countingHealth is a HealthPolicy that admits everything (unless shut)
// and counts what it is told.
type countingHealth struct {
	shut     atomic.Bool
	records  atomic.Int64
	failures atomic.Int64
}

func (h *countingHealth) Allow(string) bool { return !h.shut.Load() }
func (h *countingHealth) Record(_ string, _ time.Duration, err error) {
	h.records.Add(1)
	if err != nil {
		h.failures.Add(1)
	}
}

// startSilentPeer accepts connections and swallows every request: the
// peer that stopped answering.
func startSilentPeer(t *testing.T) string {
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
				fr := NewFrameReader(conn)
				for {
					if _, err := fr.Next(); err != nil {
						return
					}
				}
			}()
		}
	}()
	return l.Addr().String()
}

// goResult is one started call under observation: how often its Done
// ran and with what.
type goResult struct {
	call  PoolCall
	reply PollOK
	calls atomic.Int64
	errCh chan error
}

func goPoll(p *Pool, addr string, timeout time.Duration) *goResult {
	r := &goResult{errCh: make(chan error, 4)} // room for the duplicates a bug would send
	r.call = PoolCall{Addr: addr, Timeout: timeout, ReqType: TypePollReq, Req: PollReq{}, WantReply: TypePollOK, Reply: &r.reply,
		Done: func(err error) {
			r.calls.Add(1)
			r.errCh <- err
		}}
	p.Start(&r.call)
	return r
}

// wait returns the call's outcome, failing the test if it does not
// complete within limit.
func (r *goResult) wait(t *testing.T, limit time.Duration) error {
	t.Helper()
	select {
	case err := <-r.errCh:
		return err
	case <-time.After(limit):
		t.Fatalf("started call did not complete within %v", limit)
		return nil
	}
}

// once fails the test unless done ran exactly once, after giving a
// duplicate completion time to show itself.
func (r *goResult) once(t *testing.T) {
	t.Helper()
	time.Sleep(20 * time.Millisecond)
	if n := r.calls.Load(); n != 1 {
		t.Fatalf("done ran %d times, want exactly 1", n)
	}
}

// TestPoolPublishedConnTimerRace: the instant a connection is in the
// pool's table another goroutine may fail it — Close collects it, or a
// sharing caller hits a reset — and that path stops the idle timer. The
// timer must therefore exist before publication: armed afterwards, the
// stop reads a field the dialing goroutine is still writing (a data
// race), misses it, and the timer fires an idle timeout later on a dead
// connection, counting a reap that never happened.
func TestPoolPublishedConnTimerRace(t *testing.T) {
	s := startPoolEcho(t)
	const idle = 30 * time.Millisecond
	for round := 0; round < 20; round++ {
		obs := &hookPoolObs{}
		p := &Pool{IdleTimeout: idle, PoolObs: obs, Retry: Retry{Attempts: 1}}
		// The open event is reported right after publication: close the
		// pool from another goroutine while the dialing one is still
		// inside checkout.
		obs.onOpen = func() {
			go p.Close()
			time.Sleep(time.Millisecond)
		}
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ { // concurrent first calls to one address
			wg.Add(1)
			go func() {
				defer wg.Done()
				var reply PollOK
				_ = p.Call(s.addr(), time.Second, TypePollReq, PollReq{}, TypePollOK, &reply)
			}()
		}
		wg.Wait()
		p.Close()
		time.Sleep(2 * idle)
		if n := obs.reaps.Load(); n != 0 {
			t.Fatalf("round %d: %d idle reaps counted on a closed pool, want 0", round, n)
		}
		if n := obs.open.Load(); n != 0 {
			t.Fatalf("round %d: open-connection gauge at %d after Close, want 0", round, n)
		}
	}
}

// TestPoolGoAccountsLikeCall: a started call — first over the blocking
// path (no connection yet), then written by the caller on the warm
// connection — is observed, health-recorded and checkout-counted exactly
// as a Call is.
func TestPoolGoAccountsLikeCall(t *testing.T) {
	s := startPoolEcho(t)
	obs, rpc, h := &countingPoolObs{}, &rpcObsRecorder{}, &countingHealth{}
	p := &Pool{PoolObs: obs, Obs: rpc, Health: h}
	defer p.Close()
	for i := 1; i <= 3; i++ {
		r := goPoll(p, s.addr(), time.Second)
		if err := r.wait(t, 2*time.Second); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		r.once(t)
		if r.reply.UsedPE != 7 {
			t.Fatalf("call %d: reply %+v", i, r.reply)
		}
		rpc.mu.Lock()
		observed := len(rpc.errs)
		rpc.mu.Unlock()
		if observed != i || obs.checkouts.Load() != int64(i) || h.records.Load() != int64(i) {
			t.Fatalf("after %d calls: %d observed, %d checkouts, %d health records", i, observed, obs.checkouts.Load(), h.records.Load())
		}
	}
	if s.accepts.Load() != 1 || obs.redials.Load() != 0 || h.failures.Load() != 0 {
		t.Fatalf("accepts=%d redials=%d failures=%d, want 1, 0, 0", s.accepts.Load(), obs.redials.Load(), h.failures.Load())
	}

	// A refusal is final on the completion path too, and costs nothing.
	var weather WeatherOK
	refused := make(chan error, 1)
	p.Start(&PoolCall{Addr: s.addr(), Timeout: time.Second, ReqType: TypeWeatherReq, Req: WeatherReq{},
		WantReply: TypeWeatherOK, Reply: &weather, Done: func(err error) { refused <- err }})
	var remote *RemoteError
	if err := <-refused; !errors.As(err, &remote) {
		t.Fatalf("want RemoteError, got %v", err)
	}
	if openConns(p) != 1 || obs.redials.Load() != 0 || h.failures.Load() != 0 {
		t.Fatalf("refusal cost the connection: open=%d redials=%d failures=%d", openConns(p), obs.redials.Load(), h.failures.Load())
	}

	// An OPEN breaker refuses a started call as it refuses a Call.
	h.shut.Store(true)
	if err := goPoll(p, s.addr(), time.Second).wait(t, time.Second); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("want ErrBreakerOpen, got %v", err)
	}
	if obs.checkouts.Load() != 4 {
		t.Fatalf("refused call was counted as a checkout (%d, want 4)", obs.checkouts.Load())
	}
}

// TestPoolSilentPeerFailsGoAndCall: a peer that accepts and never
// answers costs a started call and a blocking Call alike at most the
// timeout, and costs the connection.
func TestPoolSilentPeerFailsGoAndCall(t *testing.T) {
	addr := startSilentPeer(t)
	p := &Pool{Retry: Retry{Attempts: 1}, Size: 1}
	defer p.Close()
	// The Call dials and the Start shares its connection (Size 1); twice,
	// because the pool must come back from the kill.
	for round := 0; round < 2; round++ {
		start := time.Now()
		blocked := make(chan error, 1)
		go func() {
			var reply PollOK
			blocked <- p.Call(addr, 60*time.Millisecond, TypePollReq, PollReq{}, TypePollOK, &reply)
		}()
		waitConns(t, p, 1)
		r := goPoll(p, addr, 60*time.Millisecond)
		if err := r.wait(t, 2*time.Second); err == nil {
			t.Fatal("started call to a silent peer succeeded")
		}
		if err := <-blocked; err == nil {
			t.Fatal("Call to a silent peer succeeded")
		}
		if took := time.Since(start); took > time.Second {
			t.Fatalf("deadline took %v to fire", took)
		}
		r.once(t)
		waitConns(t, p, 0)
	}
}

// TestPoolShorterDeadlineAfterLonger: the per-connection watchdog is
// armed for the earliest pending deadline — a short call registered
// behind a long one fires on its own time, not the long one's.
func TestPoolShorterDeadlineAfterLonger(t *testing.T) {
	addr := startSilentPeer(t)
	p := &Pool{Retry: Retry{Attempts: 1}, Size: 1}
	defer p.Close()
	long := make(chan error, 1)
	go func() {
		var reply PollOK
		long <- p.Call(addr, 30*time.Second, TypePollReq, PollReq{}, TypePollOK, &reply)
	}()
	waitConns(t, p, 1)
	start := time.Now()
	short := goPoll(p, addr, 50*time.Millisecond)
	if err := short.wait(t, 5*time.Second); err == nil {
		t.Fatal("short call to a silent peer succeeded")
	}
	if took := time.Since(start); took < 40*time.Millisecond || took > 2*time.Second {
		t.Fatalf("short deadline fired after %v, want ≈50ms", took)
	}
	// An overdue call kills the connection, so the long call fails with it.
	select {
	case err := <-long:
		if err == nil {
			t.Fatal("long call succeeded on a killed connection")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long call still waiting after its connection was killed")
	}
}

// TestPoolGoSeveredMidFlightRedialsOnce: a connection severed after a
// started request was written completes the call through the blocking
// path's redial — one PoolRedial, one success, one done.
func TestPoolGoSeveredMidFlightRedialsOnce(t *testing.T) {
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
	obs := &hookPoolObs{}
	obs.onRedial = func() { inj.Partition(false) } // heal before the redial dials
	p := &Pool{PoolObs: obs, Retry: Retry{Attempts: 3, Base: 5 * time.Millisecond, Max: 20 * time.Millisecond}}
	defer p.Close()
	addr := l.Addr().String()
	var reply PollOK
	if err := p.Call(addr, time.Second, TypePollReq, PollReq{}, TypePollOK, &reply); err != nil {
		t.Fatal(err)
	}

	// The server's next operation on the established connection — the
	// write of this request's reply at the latest — severs it.
	inj.Partition(true)
	r := goPoll(p, addr, 5*time.Second)
	if err := r.wait(t, 2*time.Second); err != nil {
		t.Fatalf("severed call did not heal through the redial: %v", err)
	}
	r.once(t)
	if r.reply.UsedPE != 5 {
		t.Fatalf("reply=%+v", r.reply)
	}
	if n := obs.redials.Load(); n != 1 {
		t.Fatalf("%d redials observed, want 1", n)
	}
	if n := obs.checkouts.Load(); n != 3 {
		t.Fatalf("%d checkouts observed, want 3 (warm call, severed attempt, redial)", n)
	}
}

// TestPoolCloseCompletesInflightOnce: Close with calls in flight, started
// and blocking, completes each exactly once with ErrPoolClosed.
func TestPoolCloseCompletesInflightOnce(t *testing.T) {
	addr := startSilentPeer(t)
	p := &Pool{}
	var warm PollOK
	_ = p.Call(addr, 20*time.Millisecond, TypePollReq, PollReq{}, TypePollOK, &warm) // dial; the silent peer kills this one
	blocked := make(chan error, 4)
	for i := 0; i < cap(blocked); i++ {
		go func() {
			var reply PollOK
			blocked <- p.Call(addr, 30*time.Second, TypePollReq, PollReq{}, TypePollOK, &reply)
		}()
	}
	waitConns(t, p, DefaultPoolSize)
	var gone []*goResult
	for i := 0; i < 8; i++ {
		gone = append(gone, goPoll(p, addr, 30*time.Second))
	}
	time.Sleep(20 * time.Millisecond) // let the blocking calls register
	p.Close()
	for i := 0; i < cap(blocked); i++ {
		select {
		case err := <-blocked:
			if !errors.Is(err, ErrPoolClosed) {
				t.Fatalf("blocking call: %v, want ErrPoolClosed", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("blocking call still waiting after Close")
		}
	}
	for i, r := range gone {
		if err := r.wait(t, 2*time.Second); !errors.Is(err, ErrPoolClosed) {
			t.Fatalf("started call %d: %v, want ErrPoolClosed", i, err)
		}
	}
	time.Sleep(20 * time.Millisecond)
	for i, r := range gone {
		if n := r.calls.Load(); n != 1 {
			t.Fatalf("started call %d completed %d times", i, n)
		}
	}
}

// startQuietEcho is a PollReq echo peer that allocates nothing per
// request, so testing.AllocsPerRun — which counts the whole process —
// reads the calling side alone.
func startQuietEcho(tb testing.TB) string {
	tb.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { l.Close() })
	var answer any = PollOK{UsedPE: 7} // boxed once
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				rc, fr := NewReplyConn(conn), NewFrameReader(conn)
				for {
					f, err := fr.Next()
					if err != nil {
						return
					}
					rc.SetID(f.ID)
					_ = WriteFrame(rc, TypePollOK, answer)
				}
			}()
		}
	}()
	return l.Addr().String()
}

// fanout16 is the shape of one request-for-bids round at the pool: one
// Start per peer from the caller's goroutine, then a wait for all sixteen.
type fanout16 struct {
	p       *Pool
	addrs   [16]string
	calls   [16]PoolCall // caller-owned records, reused round after round
	replies [16]PollOK
	req     any
	left    atomic.Int32
	all     chan struct{}
	done    func(error)
	failed  atomic.Int32
}

func newFanout16(tb testing.TB) *fanout16 {
	f := &fanout16{p: &Pool{}, req: PollReq{}, all: make(chan struct{}, 1)}
	tb.Cleanup(f.p.Close)
	f.done = func(err error) {
		if err != nil {
			f.failed.Add(1)
		}
		if f.left.Add(-1) == 0 {
			f.all <- struct{}{}
		}
	}
	for i := range f.addrs {
		f.addrs[i] = startQuietEcho(tb)
		f.calls[i] = PoolCall{Addr: f.addrs[i], Timeout: time.Second, ReqType: TypePollReq, Req: f.req,
			WantReply: TypePollOK, Reply: &f.replies[i], Done: f.done}
	}
	f.round() // dial every peer
	return f
}

func (f *fanout16) round() {
	f.left.Store(int32(len(f.addrs)))
	for i := range f.calls {
		f.p.Start(&f.calls[i])
	}
	<-f.all
}

// TestPoolWriteBlockedOnStalledReaderFailsAtDeadline: a peer that accepts
// and never reads lets a large request fill the socket buffers and block
// its Write. There is no write deadline on the shared connection: the
// call was registered and the watchdog armed before the write, and the
// watchdog's fail closes the socket, which ends the blocked Write — and
// fails the small call queued behind it for the write lock. Both finish
// by their deadline and the connection is evicted.
func TestPoolWriteBlockedOnStalledReaderFailsAtDeadline(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	held := make(chan net.Conn, 4)
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				close(held)
				return
			}
			_ = conn.(*net.TCPConn).SetReadBuffer(4 << 10)
			held <- conn // accepted, never read
		}
	}()
	defer func() {
		l.Close()
		for conn := range held {
			conn.Close()
		}
	}()
	p := &Pool{Size: 1, Retry: Retry{Attempts: 1}, DialFunc: func(addr string, timeout time.Duration) (net.Conn, error) {
		conn, err := Dial(addr, timeout)
		if err == nil {
			_ = conn.(*net.TCPConn).SetWriteBuffer(4 << 10)
		}
		return conn, err
	}}
	defer p.Close()
	const timeout = 150 * time.Millisecond
	big := Telemetry{JobID: "j", Output: strings.Repeat("x", 12<<20)} // past any loopback buffering
	start := time.Now()
	blocked := make(chan error, 1)
	go func() {
		var reply PollOK
		blocked <- p.Call(l.Addr().String(), timeout, TypeTelemetry, big, TypePollOK, &reply)
	}()
	waitConns(t, p, 1)
	time.Sleep(20 * time.Millisecond) // the big write is in the kernel's hands
	queued := goPoll(p, l.Addr().String(), timeout)
	if err := queued.wait(t, 5*time.Second); err == nil {
		t.Fatal("call queued behind a blocked write succeeded")
	}
	select {
	case err := <-blocked:
		if err == nil {
			t.Fatal("call to a peer that never reads succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("write blocked past its deadline: nothing ended it")
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("blocked write took %v to fail, want ≈%v", took, timeout)
	}
	queued.once(t)
	waitConns(t, p, 0)
}
