package protocol

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// This file adds connection pooling and request pipelining on top of
// the one-shot DialCall path. Every RPC in the system used to pay a TCP
// handshake (client↔central↔daemon), which makes auctions expensive
// relative to jobs — the opposite of what the paper's economic model
// needs ("competition for every job", §5.1). A Pool keeps N persistent
// connections per address; frame-level request IDs let many in-flight
// calls share one connection, a reader goroutine demultiplexes replies,
// idle connections are reaped, and broken ones are redialed with the
// existing jittered Retry policy.
//
// One exchange is a completion, not a parked goroutine, and a record the
// caller owns: a *PoolCall names the peer, the request, the reply target
// and a Done func; Start registers it in its connection's pending table
// and writes the request, and the connection's read goroutine decodes
// the answer in place and completes it. A sixteen-way request-for-bids
// leaves on one goroutine and allocates nothing here; Pool.Call is the
// same registration plus a wait.

// Pool defaults.
const (
	// DefaultPoolSize is the persistent-connection budget per address.
	DefaultPoolSize = 2
	// DefaultIdleTimeout is how long an unused connection survives
	// before the reaper closes it.
	DefaultIdleTimeout = 30 * time.Second
)

// Pool errors.
var (
	ErrPoolClosed = errors.New("protocol: pool closed")
	// ErrBreakerOpen is returned by Pool.Call when the address's circuit
	// breaker refuses the call: the peer has been failing or stalling,
	// and the fast refusal replaces a doomed dial-and-timeout. The error
	// is immediate — callers pay nanoseconds, not a deadline.
	ErrBreakerOpen = errors.New("protocol: circuit breaker open")
	// errConnBroken marks a checkout that raced a connection failure;
	// Pool.Call treats it like any transport error and redials.
	errConnBroken = errors.New("protocol: pooled connection broken")
)

// HealthPolicy lets a per-address failure detector veto calls and
// observe their outcomes; health.Set is the standard implementation.
// Implementations must be safe for concurrent use.
type HealthPolicy interface {
	// Allow reports whether a call to addr may proceed. False means the
	// address's breaker is OPEN and Pool.Call fails fast with
	// ErrBreakerOpen instead of dialing.
	Allow(addr string) bool
	// Record feeds one call attempt's outcome: observed latency and the
	// transport error (nil on success). The pool reports remote
	// refusals as success — the peer answered, so the transport is
	// healthy; only dial/deadline/broken-pipe failures indict it.
	Record(addr string, d time.Duration, err error)
}

// PoolObserver receives pool lifecycle events; telemetry.PoolMetrics is
// the standard implementation (faucets_rpc_pool_* series). A nil
// observer is silently skipped.
type PoolObserver interface {
	// PoolConnOpen tracks the open-connection gauge (+1 dial, -1 close).
	PoolConnOpen(delta int)
	// PoolCheckout counts one connection handed to a call.
	PoolCheckout()
	// PoolRedial counts a fresh dial forced by a broken connection.
	PoolRedial()
	// PoolIdleReap counts a connection closed by the idle reaper.
	PoolIdleReap()
}

// Pool maintains persistent, pipelined RPC connections keyed by
// address. The zero value is usable; fields must not change after the
// first Call. Pool.Call is a drop-in replacement for DialCall for
// idempotent exchanges: like Retry.Do it may deliver a request more
// than once when a connection breaks mid-call, so non-idempotent
// requests must keep their own one-shot path.
type Pool struct {
	// Size caps persistent connections per address (default
	// DefaultPoolSize). Calls beyond Size×address share connections via
	// pipelining rather than block.
	Size int
	// IdleTimeout reaps connections unused this long (default
	// DefaultIdleTimeout).
	IdleTimeout time.Duration
	// DialTimeout bounds each connection attempt (zero =
	// DefaultCallTimeout).
	DialTimeout time.Duration
	// Retry is the redial/backoff policy for broken connections; the
	// zero value means 3 attempts with jittered exponential backoff.
	Retry Retry
	// Obs receives per-call latency/error observations; a failed dial
	// is observed too.
	Obs Observer
	// PoolObs receives pool lifecycle events.
	PoolObs PoolObserver
	// DialFunc overrides the dialer (tests wrap connections with the
	// chaos injector here); nil uses Dial.
	DialFunc func(addr string, timeout time.Duration) (net.Conn, error)
	// Health, when set, gates every attempt through a per-address
	// circuit breaker and feeds it attempt outcomes. Nil disables
	// breaking entirely.
	Health HealthPolicy

	mu      sync.Mutex
	cond    *sync.Cond
	conns   map[string][]*poolConn
	dialing map[string]int // in-flight dials, reserved against Size
	closed  chan struct{}
	once    sync.Once
}

// init lazily prepares the pool's internal state.
func (p *Pool) init() {
	p.once.Do(func() {
		p.mu.Lock()
		if p.conns == nil {
			p.conns = map[string][]*poolConn{}
		}
		p.dialing = map[string]int{}
		p.cond = sync.NewCond(&p.mu)
		p.closed = make(chan struct{})
		p.mu.Unlock()
	})
}

func (p *Pool) size() int {
	if p.Size > 0 {
		return p.Size
	}
	return DefaultPoolSize
}

func (p *Pool) idleTimeout() time.Duration {
	if p.IdleTimeout > 0 {
		return p.IdleTimeout
	}
	return DefaultIdleTimeout
}

func (p *Pool) dial(addr string) (net.Conn, error) {
	if p.DialFunc != nil {
		return p.DialFunc(addr, Timeout(p.DialTimeout))
	}
	return Dial(addr, p.DialTimeout)
}

// PoolCall is one pooled exchange. The caller fills the exported fields
// and owns the record; from Start until Done runs, the record and
// everything it points at belong to the pool. Done runs exactly once and
// the pool does not touch the record afterwards, so Done may recycle it.
type PoolCall struct {
	Addr      string
	Timeout   time.Duration
	ReqType   string
	Req       any
	WantReply string
	Reply     any
	// Done receives what Pool.Call would have returned. It runs on a
	// connection's read goroutine (or whichever goroutine fails the
	// connection), never on the one that called Start, so it must not
	// block, write to a connection, or call back into the pool.
	Done func(error)

	// The pool's state for the attempt in flight.
	pc       *poolConn
	begun    time.Time  // Start's instant: the observer's clock, and attempt 0's
	deadline time.Time  // the watchdog's
	parked   chan error // non-nil: the attempt loop (call) is waiting for this attempt
}

// Call performs one deadline-bounded request/response exchange over a
// pooled connection and reports the outcome to Obs. Transport
// failures evict the broken connection and redial under the Retry
// policy; a *RemoteError aborts immediately (the peer answered and
// refused). Only idempotent calls belong here.
func (p *Pool) Call(addr string, timeout time.Duration, reqType string, req any, wantReply string, reply any) error {
	start := time.Now()
	w := waiters.Get().(*waiter)
	w.PoolCall = PoolCall{Addr: addr, Timeout: timeout, ReqType: reqType, Req: req, WantReply: wantReply, Reply: reply, parked: w.ch}
	err := p.call(0, nil, &w.PoolCall)
	w.PoolCall = PoolCall{} // pin nothing of the caller's while pooled
	waiters.Put(w)
	observe(p.Obs, reqType, start, err)
	return err
}

// waiter is the record a blocking Call parks on. Completions are
// exactly-once, so it is reusable the moment its value has been received
// and the steady state allocates no record and no channel per call.
type waiter struct {
	PoolCall
	ch chan error
}

var waiters = sync.Pool{New: func() any { return &waiter{ch: make(chan error, 1)} }}

// Start is Call as a completion: c.Done receives the outcome. When an
// established connection can take the request it is written on the
// caller's goroutine. In every other case — no connection yet, breaker
// OPEN, the connection breaks before the answer — a goroutine finishes
// the call on Call's blocking path from where the attempt left off, so
// redial, backoff, breaker and observer accounting are Call's.
func (p *Pool) Start(c *PoolCall) {
	c.begun = time.Now()
	p.mu.Lock()
	pc := p.shareLocked(c.Addr)
	p.mu.Unlock()
	if pc != nil {
		if h := p.Health; h == nil || h.Allow(c.Addr) {
			p.observeCheckout()
			pc.start(c)
			return
		}
		pc.inflight.Add(-1) // refused again in call, unless the cooldown just lapsed
	}
	go p.finish(c, 0, nil)
}

// finish completes a started call on the blocking path, from attempt
// first on.
func (p *Pool) finish(c *PoolCall, first int, err error) {
	c.parked = make(chan error, 1)
	err = p.call(first, err, c)
	c.parked = nil
	observe(p.Obs, c.ReqType, c.begun, err)
	c.Done(err)
}

// complete ends the attempt in flight; whoever took c out of its
// connection's pending table calls it. A parked attempt is the attempt
// loop's to finish; a started one finishes here unless it needs a redial.
func (c *PoolCall) complete(err error) {
	if c.parked != nil {
		c.parked <- err
		return
	}
	p := c.pc.pool
	c.pc.checkin()
	if !p.settled(c.Addr, c.begun, err) {
		go p.finish(c, 1, err)
		return
	}
	observe(p.Obs, c.ReqType, c.begun, err)
	c.Done(err)
}

// call runs the attempt loop from attempt first, parking on c for each;
// err is what the attempt before it left behind (a started call hands
// over after a failed attempt 0).
func (p *Pool) call(first int, err error, c *PoolCall) error {
	p.init()
	addr := c.Addr
	r := p.Retry
	if r.Stop == nil {
		r.Stop = p.closed
	}
	for i, attempts := first, r.attempts(); i < attempts; i++ {
		if i > 0 {
			if obs := p.PoolObs; obs != nil {
				obs.PoolRedial()
			}
			backoff := time.NewTimer(r.Delay(i - 1))
			select {
			case <-r.Stop:
				backoff.Stop()
				return err
			case <-backoff.C:
			}
		}
		if h := p.Health; h != nil && !h.Allow(addr) {
			// OPEN breaker: fail fast rather than redial into a peer
			// already known to be sick. If an earlier attempt produced a
			// concrete transport error, surface that instead.
			if err == nil {
				err = fmt.Errorf("%w: %s", ErrBreakerOpen, addr)
			}
			return err
		}
		attemptStart := time.Now()
		var pc *poolConn
		pc, err = p.checkout(addr)
		if err != nil {
			if errors.Is(err, ErrPoolClosed) {
				return err
			}
			p.recordHealth(addr, attemptStart, err)
			continue // dial failure: back off and redial
		}
		pc.start(c)
		err = <-c.parked
		pc.checkin()
		if p.settled(addr, attemptStart, err) {
			return err
		}
		// Transport trouble: pc has already been evicted by fail();
		// loop around for a fresh connection.
	}
	return err
}

// settled feeds one attempt's outcome to the breaker and reports whether
// it ends the call. A *RemoteError does, and the breaker sees it as a
// success: delivered and refused, so the transport is healthy and
// retrying unchanged cannot succeed.
func (p *Pool) settled(addr string, attemptStart time.Time, err error) bool {
	transport := err
	if err != nil {
		var remote *RemoteError // declared here: errors.As makes it escape
		if errors.As(err, &remote) {
			transport = nil
		}
	}
	p.recordHealth(addr, attemptStart, transport)
	return transport == nil
}

// recordHealth feeds one attempt's outcome to the breaker, if any.
func (p *Pool) recordHealth(addr string, start time.Time, err error) {
	if h := p.Health; h != nil {
		h.Record(addr, time.Since(start), err)
	}
}

// checkout hands the caller a connection to addr: an existing idle one,
// a fresh dial while under Size (in-flight dials count against the
// budget), or the least-loaded one to share. When the budget is spent
// entirely on dials still in flight, the caller waits for one to land
// rather than over-dialing.
func (p *Pool) checkout(addr string) (*poolConn, error) {
	p.mu.Lock()
	for {
		select {
		case <-p.closed:
			p.mu.Unlock()
			return nil, ErrPoolClosed
		default:
		}
		if pc := p.shareLocked(addr); pc != nil {
			p.mu.Unlock()
			p.observeCheckout()
			return pc, nil
		}
		if len(p.conns[addr])+p.dialing[addr] < p.size() {
			p.dialing[addr]++
			break
		}
		// No established connection yet and every slot holds an
		// in-flight dial: wait for one to land or fail.
		p.cond.Wait()
	}
	p.mu.Unlock()

	// Dial outside the lock so a slow handshake never blocks checkouts
	// to other addresses.
	conn, err := p.dial(addr)
	p.mu.Lock()
	p.dialing[addr]--
	if err != nil {
		p.cond.Broadcast()
		p.mu.Unlock()
		return nil, err
	}
	select {
	case <-p.closed:
		p.cond.Broadcast()
		p.mu.Unlock()
		conn.Close()
		return nil, ErrPoolClosed
	default:
	}
	pc := &poolConn{pool: p, addr: addr, conn: conn, pending: map[uint64]*PoolCall{}}
	pc.inflight.Add(1)
	pc.lastUsed.Store(time.Now().UnixNano())
	// Both timers exist before the connection is published: once it is
	// in p.conns another caller may check it out, fail it, and stop them.
	pc.idleTimer = time.AfterFunc(p.idleTimeout(), pc.reapIfIdle)
	pc.watchdog = time.AfterFunc(time.Hour, pc.overdue)
	pc.watchdog.Stop() // armed by the first call that registers
	p.conns[addr] = append(p.conns[addr], pc)
	p.cond.Broadcast()
	p.mu.Unlock()
	if obs := p.PoolObs; obs != nil {
		obs.PoolConnOpen(+1)
	}
	p.observeCheckout()
	go pc.readLoop()
	return pc, nil
}

// shareLocked claims the connection to addr that a checkout would hand
// out right now — an idle one, or the least loaded once the budget is
// spent — and returns nil when a checkout would dial or wait instead.
// The caller holds p.mu.
func (p *Pool) shareLocked(addr string) *poolConn {
	var best *poolConn
	for _, pc := range p.conns[addr] {
		if best == nil || pc.inflight.Load() < best.inflight.Load() {
			best = pc
		}
	}
	if best == nil || best.inflight.Load() > 0 && len(p.conns[addr])+p.dialing[addr] < p.size() {
		return nil
	}
	best.inflight.Add(1)
	return best
}

func (p *Pool) observeCheckout() {
	if obs := p.PoolObs; obs != nil {
		obs.PoolCheckout()
	}
}

// evict removes pc from the pool (no-op if already gone) and reports
// the close to the observer.
func (p *Pool) evict(pc *poolConn) {
	p.mu.Lock()
	conns := p.conns[pc.addr]
	for i, c := range conns {
		if c == pc {
			p.conns[pc.addr] = append(conns[:i], conns[i+1:]...)
			p.mu.Unlock()
			if obs := p.PoolObs; obs != nil {
				obs.PoolConnOpen(-1)
			}
			return
		}
	}
	p.mu.Unlock()
}

// OpenConns reports the number of live pooled connections (tests).
func (p *Pool) OpenConns() int {
	p.init()
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, conns := range p.conns {
		n += len(conns)
	}
	return n
}

// Close severs every pooled connection and fails future Calls with
// ErrPoolClosed. Safe to call more than once.
func (p *Pool) Close() {
	p.init()
	p.mu.Lock()
	select {
	case <-p.closed:
	default:
		close(p.closed)
	}
	p.cond.Broadcast()
	var all []*poolConn
	for _, conns := range p.conns {
		all = append(all, conns...)
	}
	p.conns = map[string][]*poolConn{}
	p.mu.Unlock()
	for _, pc := range all {
		if obs := p.PoolObs; obs != nil {
			obs.PoolConnOpen(-1)
		}
		pc.failLocal(ErrPoolClosed)
	}
}

// poolConn is one persistent connection with pipelined calls: writes
// are serialized under wmu, a single readLoop goroutine matches replies
// to pending calls by frame ID and completes them. Whoever removes a
// call from pending (under mu) completes it, so every call completes
// exactly once.
type poolConn struct {
	pool *Pool
	addr string
	conn net.Conn

	wmu sync.Mutex // serializes frame writes

	nextID atomic.Uint64

	mu      sync.Mutex
	pending map[uint64]*PoolCall
	err     error // first failure; connection is dead once set
	// watchdog enforces every pending deadline with one timer: armed for
	// the earliest (watchAt), re-armed earlier when a shorter one
	// registers, left to fire late and look again otherwise.
	watchdog *time.Timer
	watchAt  time.Time // zero: not armed

	inflight  atomic.Int64
	lastUsed  atomic.Int64 // UnixNano of the last checkin
	idleTimer *time.Timer
}

// readLoop completes pending calls with their replies until the
// connection dies, then fails the rest. The reply is decoded here, in
// place out of the reader's buffer, into the value the caller
// registered; a large reply therefore delays the ones behind it on this
// connection, and nothing of the frame outlives the iteration.
func (pc *poolConn) readLoop() {
	fr := NewFrameReader(pc.conn)
	for {
		f, err := fr.Next()
		if err != nil {
			pc.fail(fmt.Errorf("protocol: pooled read %s: %w", pc.addr, err))
			return
		}
		pc.mu.Lock()
		call, ok := pc.pending[f.ID]
		delete(pc.pending, f.ID)
		pc.mu.Unlock()
		if ok {
			call.complete(decodeReply(f, call.WantReply, call.Reply))
		}
	}
}

// fail marks the connection dead, evicts it from the pool, and delivers
// the error to every in-flight call — a partitioned or severed
// connection fails fast instead of wedging callers until their
// deadlines.
func (pc *poolConn) fail(err error) {
	pc.pool.evict(pc)
	pc.failLocal(err)
}

// failLocal is fail without the evict (Close already detached us).
func (pc *poolConn) failLocal(err error) {
	pc.mu.Lock()
	if pc.err == nil {
		pc.err = err
	}
	pending := pc.pending
	pc.pending = nil // start refuses a dead connection, so nothing writes it again
	pc.mu.Unlock()
	pc.conn.Close()
	pc.idleTimer.Stop()
	pc.watchdog.Stop()
	for _, call := range pending {
		call.complete(err)
	}
}

// start registers one exchange and writes its request; c completes
// exactly once, with the decoded reply in place or the error that ended
// the attempt. The request is encoded before c is registered: from then
// on a failing connection may complete c — and its owner recycle it — at
// any moment, so start does not read it again. The connection is shared,
// so the deadline is the watchdog's rather than SetDeadline's, and a call
// that runs past it kills the connection (a peer that stopped answering
// would poison every later call sharing it). That covers the write too:
// the watchdog is armed before it, and closing the socket ends a write
// blocked on a peer that has stopped reading.
func (pc *poolConn) start(c *PoolCall) {
	c.pc = pc
	c.deadline = time.Now().Add(Timeout(c.Timeout))
	id := pc.nextID.Add(1)
	bp := writeBufPool.Get().(*[]byte)
	buf, err := AppendFrame((*bp)[:0], CodecBinary, id, c.ReqType, c.Req)
	pc.mu.Lock()
	if err == nil && pc.err != nil {
		err = fmt.Errorf("%w: %w", errConnBroken, pc.err)
	}
	if err != nil {
		pc.mu.Unlock()
		putWriteBuf(bp, buf)
		c.complete(err)
		return
	}
	pc.pending[id] = c
	if pc.watchAt.IsZero() || c.deadline.Before(pc.watchAt) {
		pc.watchAt = c.deadline
		pc.watchdog.Reset(time.Until(c.deadline))
	}
	pc.mu.Unlock()

	pc.wmu.Lock()
	_, err = pc.conn.Write(buf)
	pc.wmu.Unlock()
	putWriteBuf(bp, buf)
	if err != nil {
		// Completes this call too, unless the read loop got there first.
		pc.fail(fmt.Errorf("protocol: write frame: %w", err))
	}
}

// overdue is the watchdog firing: a call past its deadline kills the
// connection and fails every pending call; otherwise the timer is
// re-armed for the earliest deadline left, if any.
func (pc *poolConn) overdue() {
	pc.mu.Lock()
	pc.watchAt = time.Time{}
	var next time.Time
	for _, call := range pc.pending {
		if next.IsZero() || call.deadline.Before(next) {
			next = call.deadline
		}
	}
	late := !next.IsZero() && !next.After(time.Now())
	if !late && !next.IsZero() {
		pc.watchAt = next
		pc.watchdog.Reset(time.Until(next))
	}
	pc.mu.Unlock()
	if late {
		pc.fail(fmt.Errorf("protocol: pooled call %s: deadline exceeded", pc.addr))
	}
}

// reapIfIdle closes the connection if it has sat unused for the idle
// timeout; otherwise it re-arms the timer for the remaining window.
func (pc *poolConn) reapIfIdle() {
	idle := pc.pool.idleTimeout()
	last := time.Unix(0, pc.lastUsed.Load())
	if pc.inflight.Load() == 0 && time.Since(last) >= idle {
		if obs := pc.pool.PoolObs; obs != nil {
			obs.PoolIdleReap()
		}
		pc.fail(fmt.Errorf("%w: idle reap", net.ErrClosed))
		return
	}
	// Re-arm for the remaining window, with a floor so a long in-flight
	// call (lastUsed far in the past, inflight > 0) re-checks at a
	// bounded cadence instead of spinning.
	d := idle - time.Since(last)
	if d < idle/4 {
		d = idle / 4
	}
	pc.idleTimer.Reset(d)
}

// checkin releases the caller's claim and refreshes the idle clock.
func (pc *poolConn) checkin() {
	pc.lastUsed.Store(time.Now().UnixNano())
	pc.inflight.Add(-1)
}
