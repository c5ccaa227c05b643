// Package client implements the Faucets Client (FC) library behind the
// paper's command-line, GUI and browser clients (§2, Fig 2): authenticate
// to the Faucets Central Server, obtain the list of matching Compute
// Servers, solicit bids from each server's Faucets Daemon, choose the
// best bid under a selection criterion, commit, upload input files,
// start the job, and monitor it via AppSpector (Fig 3).
package client

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"slices"
	"strconv"
	"sync"
	"time"

	"faucets/internal/bidding"
	"faucets/internal/health"
	"faucets/internal/market"
	"faucets/internal/protocol"
	"faucets/internal/qos"
	"faucets/internal/stage"
	"faucets/internal/telemetry"
)

// Client is an authenticated Faucets session.
type Client struct {
	CentralAddr    string
	AppSpectorAddr string
	User           string
	Token          string
	// DialTimeout bounds every connection attempt.
	DialTimeout time.Duration
	// RPCTimeout bounds each request/response round trip, so a hung
	// server cannot stall the client forever (zero =
	// protocol.DefaultCallTimeout).
	RPCTimeout time.Duration
	// UploadChunk is the staging chunk size in bytes.
	UploadChunk int
	// Tracer, when set, records job-lifecycle span events (submission
	// and bid award happen client-side; the grid harness shares one
	// tracer with the daemons to assemble the full chain).
	Tracer *telemetry.Tracer
	// PoolObs, when set, receives connection-pool lifecycle events
	// (telemetry.NewPoolMetrics is the standard implementation). Bid
	// solicitation, commits, submits and status polls all ride the pool;
	// bulk transfers (Upload, FetchOutput) and the Watch stream keep
	// dedicated connections.
	PoolObs protocol.PoolObserver
	// BidTimeout is the per-bid deadline: a daemon that has not
	// answered in time forfeits its bid for this auction instead of
	// stalling it (zero = no per-bid deadline beyond RPCTimeout).
	BidTimeout time.Duration
	// Metrics, when set, records the auction fan-out latency histogram
	// faucets_auction_fanout_seconds.
	Metrics *telemetry.Registry
	// Breakers, when set, installs per-daemon circuit breakers on the
	// daemons' pool and gates auction fan-outs: a daemon whose breaker
	// is OPEN forfeits its bid instantly (no dial, no timeout) until its
	// cooldown lapses and a half-open probe succeeds (nil = no
	// breakers). The pool refuses every call to an OPEN daemon, status
	// polls included. Central Server calls never consult or feed them.
	Breakers *health.Set
	// Mechanism selects the market mechanism for contracts that do not
	// carry one (a qos.Mechanism* name). Empty adopts the grid default
	// the Central Server advertised at login, falling back to the
	// first-price auction.
	Mechanism string
	// GridMechanism is the default mechanism the Central Server
	// advertised at login (AuthOK.Mechanism); filled by Login.
	GridMechanism string
	// Shards is the Central Server mesh's shard-ring address list as
	// advertised at login (AuthOK.Shards); empty on single-shard grids.
	// It is a cached routing hint: when a request comes back with a
	// NOT_OWNER redirect the client refreshes its session at the owning
	// shard and retries, so a stale map costs one extra round trip, not
	// a failure.
	Shards []string

	// password is retained from Login so the session can transparently
	// re-authenticate after a shard redirect or a restarted shard losing
	// its in-memory session store.
	password string

	// sessMu guards the rebindable session state above (CentralAddr,
	// Token, GridMechanism, Shards): a transparent re-login may rewrite
	// it while concurrent placements read it. Client methods snapshot
	// through session()/token(); external readers should not race a
	// refresh (they observe the session between their own calls).
	sessMu sync.RWMutex

	fanoutOnce sync.Once
	fanoutHist *telemetry.Histogram
	skipOnce   sync.Once
	skipCount  *telemetry.Counter

	poolOnce    sync.Once
	pool        *protocol.Pool // daemon calls, behind Breakers
	centralPool *protocol.Pool // Central Server calls, behind no breaker
}

// pools lazily builds the client's two connection pools, each retrying
// three times with jittered exponential backoff. Only the daemons' pool
// carries Breakers: a slow or restarting Central Server must not open a
// breaker that refuses the directory for a whole cooldown.
func (c *Client) pools() {
	c.poolOnce.Do(func() {
		build := func() *protocol.Pool {
			return &protocol.Pool{
				DialTimeout: c.DialTimeout,
				PoolObs:     c.PoolObs,
				Retry:       protocol.Retry{Attempts: 3, Base: 50 * time.Millisecond, Max: 500 * time.Millisecond},
			}
		}
		c.pool, c.centralPool = build(), build()
		if c.Breakers != nil {
			c.pool.Health = c.Breakers
		}
	})
}

// rpcPool is the pool for calls to daemons.
func (c *Client) rpcPool() *protocol.Pool {
	c.pools()
	return c.pool
}

// Close releases the client's pooled connections. The session is done
// after Close: subsequent calls fail with protocol.ErrPoolClosed.
func (c *Client) Close() {
	c.pools()
	c.pool.Close()
	c.centralPool.Close()
}

// fanout lazily resolves the auction fan-out histogram (nil when no
// Metrics registry is attached).
func (c *Client) fanout() *telemetry.Histogram {
	c.fanoutOnce.Do(func() {
		if c.Metrics != nil {
			c.fanoutHist = c.Metrics.Histogram("faucets_auction_fanout_seconds",
				"Latency of one request-for-bids broadcast (the mechanism's solicit round in Place).", nil)
		}
	})
	return c.fanoutHist
}

// breakerSkips lazily resolves the gate-skip counter (nil when no
// Metrics registry is attached).
func (c *Client) breakerSkips() *telemetry.Counter {
	c.skipOnce.Do(func() {
		if c.Metrics != nil {
			c.skipCount = c.Metrics.Counter("faucets_auction_breaker_skips_total",
				"Daemons skipped during bid solicitation because their circuit breaker was open.")
		}
	})
	return c.skipCount
}

// solicitOpts assembles the fan-out options for Place: per-bid deadline
// and the breaker gate (concurrency is the market's default).
// The gate reads Healthy — a non-claiming check — rather than Allow, so
// gating a fan-out never consumes the half-open probe slot the pool's own
// Allow claims when a call is actually issued.
func (c *Client) solicitOpts() market.SolicitOpts {
	opts := market.SolicitOpts{Timeout: c.BidTimeout}
	if c.Breakers != nil {
		skips := c.breakerSkips()
		opts.Gate = func(s market.ServerPort) bool {
			p, ok := s.(*fdPort)
			if !ok {
				return true
			}
			if c.Breakers.Healthy(p.info.Addr) {
				return true
			}
			if skips != nil {
				skips.Inc()
			}
			return false
		}
	}
	return opts
}

// Login authenticates with the Central Server and returns a session.
func Login(centralAddr, user, password string) (*Client, error) {
	return LoginTimeout(centralAddr, user, password, 0)
}

// LoginTimeout is Login with an explicit per-call deadline, applied to
// the login exchange and inherited by the session's subsequent calls.
// On a sharded grid any shard answers: a login landing on the wrong
// shard is answered with a NOT_OWNER redirect and retried once at the
// owner, after which CentralAddr points at the user's home shard and
// steady-state requests need no redirects at all.
func LoginTimeout(centralAddr, user, password string, rpcTimeout time.Duration) (*Client, error) {
	c := &Client{CentralAddr: centralAddr, User: user, DialTimeout: 5 * time.Second, RPCTimeout: rpcTimeout, UploadChunk: 1 << 20}
	c.password = password
	if err := c.loginAt(centralAddr); err != nil {
		if owner, redirect := protocol.NotOwnerAddr(err); redirect && owner != centralAddr {
			err = c.loginAt(owner)
		}
		if err != nil {
			return nil, fmt.Errorf("client: login: %w", err)
		}
	}
	return c, nil
}

// loginAt performs one login exchange against addr; on success the
// session is rebound there (CentralAddr, token, mechanism, shard map).
func (c *Client) loginAt(addr string) error {
	c.sessMu.Lock()
	defer c.sessMu.Unlock()
	return c.loginAtLocked(addr)
}

// loginAtLocked is loginAt with sessMu already held.
func (c *Client) loginAtLocked(addr string) error {
	conn, err := c.dial(addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	var ok protocol.AuthOK
	if err := protocol.CallTimeout(conn, c.RPCTimeout, protocol.TypeAuthReq, protocol.AuthReq{User: c.User, Password: c.password}, protocol.TypeAuthOK, &ok); err != nil {
		return err
	}
	c.CentralAddr = addr
	c.Token = ok.Token
	c.GridMechanism = ok.Mechanism
	c.Shards = ok.Shards
	return nil
}

// session snapshots the rebindable session state for one call attempt.
func (c *Client) session() (addr, token string) {
	c.sessMu.RLock()
	defer c.sessMu.RUnlock()
	return c.CentralAddr, c.Token
}

// token snapshots the current session token.
func (c *Client) token() string {
	_, tok := c.session()
	return tok
}

// refreshSession re-authenticates after a NOT_OWNER redirect (at the
// owning shard) or an authentication refusal (same shard — its session
// store restarted). prevToken is the token the failed attempt carried:
// when a concurrent caller already refreshed the session past it, the
// refresh is free. Only sessions created through Login can refresh;
// hand-assembled Clients carry no password and keep the original error.
func (c *Client) refreshSession(prevToken string, err error) bool {
	if c.password == "" {
		return false
	}
	owner, redirect := protocol.NotOwnerAddr(err)
	var remote *protocol.RemoteError
	authFail := errors.As(err, &remote) && remote.Message == "central: authentication failed"
	if !redirect && !authFail {
		return false
	}
	c.sessMu.Lock()
	defer c.sessMu.Unlock()
	if c.Token != prevToken {
		return true // another goroutine refreshed while we waited
	}
	addr := c.CentralAddr
	if redirect {
		addr = owner
	}
	return c.loginAtLocked(addr) == nil
}

// centralCall performs one Central Server exchange, transparently
// refreshing the session and retrying once when the shard mesh
// redirects or a restarted shard no longer knows the token. build runs
// per attempt with that attempt's token, so the retried request carries
// the fresh one.
func (c *Client) centralCall(reqType string, build func(token string) any, wantReply string, reply any) error {
	c.pools()
	addr, tok := c.session()
	err := c.centralPool.Call(addr, c.RPCTimeout, reqType, build(tok), wantReply, reply)
	if err == nil {
		return nil
	}
	if !c.refreshSession(tok, err) {
		return err
	}
	addr, tok = c.session()
	return c.centralPool.Call(addr, c.RPCTimeout, reqType, build(tok), wantReply, reply)
}

// mechanismFor resolves the market mechanism used to place a contract:
// the contract's own Mechanism wins, then the client's configured
// default, then the grid default advertised at login, then first-price.
func (c *Client) mechanismFor(contract *qos.Contract) (market.Mechanism, error) {
	name := contract.Mechanism
	if name == "" {
		name = c.Mechanism
	}
	if name == "" {
		c.sessMu.RLock()
		name = c.GridMechanism
		c.sessMu.RUnlock()
	}
	return market.ForName(name)
}

func (c *Client) dial(addr string) (net.Conn, error) {
	timeout := c.DialTimeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	return conn, nil
}

// ListServers asks the Central Server for Compute Servers matching the
// contract (nil lists all).
func (c *Client) ListServers(contract *qos.Contract) ([]protocol.ServerInfo, error) {
	var reply protocol.ListServersOK
	if err := c.listServers(contract, &reply); err != nil {
		return nil, err
	}
	return reply.Servers, nil
}

// listServers reads the directory into reply, reusing what it holds.
func (c *Client) listServers(contract *qos.Contract, reply *protocol.ListServersOK) error {
	err := c.centralCall(protocol.TypeListServersReq,
		func(token string) any { return protocol.ListServersReq{Token: token, Contract: contract} },
		protocol.TypeListServersOK, reply)
	if err != nil {
		return fmt.Errorf("client: list servers: %w", err)
	}
	return nil
}

// ListApps fetches the grid's Known Applications catalogue.
func (c *Client) ListApps() ([]string, error) {
	var reply protocol.ListAppsOK
	err := c.centralCall(protocol.TypeListAppsReq,
		func(token string) any { return protocol.ListAppsReq{Token: token} },
		protocol.TypeListAppsOK, &reply)
	if err != nil {
		return nil, fmt.Errorf("client: list apps: %w", err)
	}
	return reply.Apps, nil
}

// Credits queries a cluster's bartering balance.
func (c *Client) Credits(cluster string) (float64, error) {
	var reply protocol.CreditsOK
	err := c.centralCall(protocol.TypeCreditsReq,
		func(token string) any { return protocol.CreditsReq{Token: token, Cluster: cluster} },
		protocol.TypeCreditsOK, &reply)
	if err != nil {
		return 0, fmt.Errorf("client: credits: %w", err)
	}
	return reply.Credits, nil
}

// fdPort adapts a Faucets Daemon socket endpoint to market.ServerPort.
// Bid expiry is evaluated by the daemon (each daemon runs its own
// clock), so the port passes the market layer a zero "now".
type fdPort struct {
	c    *Client
	info *protocol.ServerInfo // an element of Place's directory listing
}

var _ market.BidStarter = (*fdPort)(nil)

func (p *fdPort) ServerName() string { return p.info.Spec.Name }

func (p *fdPort) RequestBid(_ float64, contract *qos.Contract) (bidding.Bid, bool) {
	var reply protocol.BidOK
	err := p.c.rpcPool().Call(p.info.Addr, p.c.RPCTimeout, protocol.TypeBidReq,
		protocol.BidReq{User: p.c.User, Token: p.c.token(), Contract: contract},
		protocol.TypeBidOK, &reply)
	return bidFrom(&reply, err)
}

// StartBid implements market.BidStarter: the request is written on the
// caller's goroutine — the auction's — and the sink is answered by the
// pool's completion, so a sixteen-way fan-out parks no goroutine per bid
// and, on a recycled record, allocates nothing per bid.
func (p *fdPort) StartBid(_ float64, contract *qos.Contract, sink market.BidSink) {
	b, _ := bidCalls.Get().(*bidCall)
	if b == nil {
		b = new(bidCall)
		b.call = protocol.PoolCall{ReqType: protocol.TypeBidReq, Req: &b.req,
			WantReply: protocol.TypeBidOK, Reply: &b.reply, Done: b.done}
	}
	b.sink = sink
	b.call.Addr, b.call.Timeout = p.info.Addr, p.c.RPCTimeout
	b.req.User, b.req.Token, b.req.Contract = p.c.User, p.c.token(), contract
	b.reply.Bid.Server = p.info.Spec.Name // what the daemon will answer: the decoder keeps an equal string
	p.c.rpcPool().Start(&b.call)
}

// bidCall is one StartBid exchange: the pool's record with the request
// and reply it points at. It belongs to the exchange from StartBid until
// done runs — an attempt the auction has forfeited at its bid deadline
// still completes into its own record — and a pool call
// completes exactly once, so done may recycle it.
type bidCall struct {
	call  protocol.PoolCall
	req   protocol.BidReq
	reply protocol.BidOK
	sink  market.BidSink
}

var bidCalls sync.Pool // of *bidCall; no New: done refers back to the pool

// done is the pool's completion. The record goes back before the bid is
// delivered: nothing holds it any more, and the sink may start the next
// attempt from here.
func (b *bidCall) done(err error) {
	bid, ok := bidFrom(&b.reply, err)
	sink := b.sink
	b.sink, b.req.Contract = nil, nil
	bidCalls.Put(b)
	sink.DeliverBid(bid, ok)
}

// bidFrom turns a bid exchange's outcome into the market's answer: any
// failure is a forfeit, and reply is not read after one (a failed decode
// leaves it unspecified).
func bidFrom(reply *protocol.BidOK, err error) (bidding.Bid, bool) {
	if err != nil {
		return bidding.Bid{}, false
	}
	b := reply.Bid
	// ExpiresAt is on the daemon's clock, which the client does not
	// share: zeroed, it ranks no bid and the commit carries none back.
	// The daemon bounds the commitment itself, bidValidity from the
	// moment it accepts the commit.
	b.ExpiresAt = 0
	return b, true
}

// Post implements market.PostPort: the daemon's commodity post is
// derived entirely from its directory listing — static spec plus the
// UsedPE weather the Central Server publishes from its liveness polls —
// so reading a post costs no round trip at all. Feasibility here is the
// directory's static screen only; the daemon still arbitrates at commit
// time, which is where the posted-price mechanism's admission risk lives.
func (p *fdPort) Post(now float64, contract *qos.Contract) (bidding.Bid, bool) {
	return bidding.PostedBid(p.info.Spec.Name, now, contract,
		bidding.PostedState(&p.info.Spec, p.info.UsedPE, p.info.Matches(contract)))
}

// Commit rides the pool too: the daemon's commit handler is idempotent
// per (job, user), so a redial-and-resend after a broken connection is
// safe.
func (p *fdPort) Commit(_ float64, jobID string, b bidding.Bid) error {
	tc := tripCalls.Get().(*tripCall)
	defer tripCalls.Put(tc)
	tc.commit = protocol.CommitReq{User: p.c.User, Token: p.c.token(), JobID: jobID, Bid: b}
	return p.c.rpcPool().Call(p.info.Addr, p.c.RPCTimeout, protocol.TypeCommitReq,
		&tc.commit, protocol.TypeCommitOK, &tc.commitOK)
}

// tripCall is a commit's or a start's request and reply, recycled rather
// than boxed afresh: Pool.Call keeps nothing of either once it returns.
type tripCall struct {
	commit   protocol.CommitReq
	commitOK protocol.CommitOK
	submit   protocol.SubmitReq
	submitOK protocol.SubmitOK
}

var tripCalls = sync.Pool{New: func() any { return new(tripCall) }}

// Placement is a job awarded to a Compute Server.
type Placement struct {
	JobID    string
	Server   protocol.ServerInfo
	Bid      bidding.Bid
	Contract *qos.Contract
	// Attempts is the number of commit attempts the award needed.
	Attempts int
}

// ErrNoServers is returned when the directory has no match for the job.
var ErrNoServers = errors.New("client: no matching compute servers")

// NewJobID mints a unique job identifier.
func NewJobID() string {
	var raw [8]byte
	if _, err := rand.Read(raw[:]); err != nil {
		return fmt.Sprintf("job-%d", time.Now().UnixNano())
	}
	return "job-" + hex.EncodeToString(raw[:])
}

// Place runs the full §5 selection for a contract: filtered server list
// from the FS, request-for-bids to each FD, criterion-ranked two-phase
// award. It does not upload files or start the job — see Upload and
// Start.
func (c *Client) Place(contract *qos.Contract, crit market.Criterion) (*Placement, error) {
	if err := contract.Validate(); err != nil {
		return nil, err
	}
	if crit == nil {
		crit = market.LeastCost{}
	}
	// The listing, the ports over it and the ranked bids live in a
	// recycled scratch: the directory barely changes between placements,
	// so the decode keeps its strings and slices. Nothing outlives Place
	// but the Placement, which copies what it needs.
	sc := placeScratches.Get().(*placeScratch)
	defer placeScratches.Put(sc)
	if err := c.listServers(contract, &sc.listing); err != nil {
		return nil, err
	}
	servers := sc.listing.Servers
	if len(servers) == 0 {
		return nil, ErrNoServers
	}
	mech, err := c.mechanismFor(contract)
	if err != nil {
		return nil, err
	}
	sc.fds, sc.ports = slices.Grow(sc.fds[:0], len(servers)), sc.ports[:0] // grown first: ports point into fds
	for i := range servers {
		sc.fds = append(sc.fds, fdPort{c: c, info: &servers[i]})
		sc.ports = append(sc.ports, &sc.fds[i])
	}
	ports := sc.ports
	jobID := NewJobID()
	var text [128]byte
	if c.Tracer != nil { // the detail is formatted only when someone keeps it
		c.Tracer.Record(jobID, telemetry.SpanSubmit, string(submitText(text[:0], contract.App, c.User, contract.Work, len(servers))))
	}
	// The winning bid is traced between solicit and commit, before the
	// commit round records the contract span on the daemon — keeping the
	// chain in causal order.
	solStart := time.Now()
	bids := mech.Solicit(sc.bids, 0, ports, contract, crit, c.solicitOpts())
	sc.bids = bids
	if h := c.fanout(); h != nil {
		h.Observe(time.Since(solStart).Seconds())
	}
	if len(bids) > 0 && c.Tracer != nil {
		c.Tracer.Record(jobID, telemetry.SpanBid, string(bidText(text[:0], len(bids), bids[0].Server, bids[0].Price)))
	}
	res, err := market.CommitPriced(0, ports, bids, jobID, false, mech)
	if err != nil {
		return nil, fmt.Errorf("client: award: %w", err)
	}
	p := &Placement{JobID: jobID, Server: servers[res.Port], Bid: res.Bid, Contract: contract, Attempts: res.Attempts}
	p.Server.Apps = slices.Clone(p.Server.Apps) // the scratch's next decode overwrites the original
	return p, nil
}

// submitText appends the submit span's detail, "%s by %s: %.0f work for
// %d servers" byte for byte, boxing no argument.
func submitText(b []byte, app, user string, work float64, servers int) []byte {
	b = append(append(append(append(b, app...), " by "...), user...), ": "...)
	b = strconv.AppendInt(append(strconv.AppendFloat(b, work, 'f', 0, 64), " work for "...), int64(servers), 10)
	return append(b, " servers"...)
}

// bidText appends the bid span's detail, "best of %d bids: %s at price
// %.2f" byte for byte, boxing no argument.
func bidText(b []byte, bids int, server string, price float64) []byte {
	b = append(append(append(strconv.AppendInt(append(b, "best of "...), int64(bids), 10), " bids: "...), server...), " at price "...)
	return strconv.AppendFloat(b, price, 'f', 2, 64)
}

// placeScratch is what one Place needs only until it returns.
type placeScratch struct {
	listing protocol.ListServersOK
	fds     []fdPort
	ports   []market.ServerPort
	bids    []bidding.Bid
}

var placeScratches = sync.Pool{New: func() any { return new(placeScratch) }}

// Upload stages one input file to the awarded daemon in chunks with an
// integrity digest.
func (c *Client) Upload(p *Placement, name string, data []byte) error {
	conn, err := c.dial(p.Server.Addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	chunk := c.UploadChunk
	if chunk <= 0 {
		chunk = 1 << 20
	}
	digest := stage.Digest(data)
	off := 0
	for {
		end := off + chunk
		last := false
		if end >= len(data) {
			end = len(data)
			last = true
		}
		req := protocol.UploadReq{User: c.User, Token: c.token(), JobID: p.JobID, Name: name, Offset: int64(off), Data: data[off:end], Last: last}
		if last {
			req.SHA256 = digest
		}
		var reply protocol.UploadOK
		if err := protocol.CallTimeout(conn, c.RPCTimeout, protocol.TypeUploadReq, req, protocol.TypeUploadOK, &reply); err != nil {
			return fmt.Errorf("client: upload %s: %w", name, err)
		}
		if last {
			return nil
		}
		off = end
	}
}

// Start submits the committed job for execution (idempotent per job ID,
// so it rides the pool) while this user's commitment holds, 0.3 s wall at
// a daemon TimeScale of 1000; once it lapses, Start is refused: Place again.
func (c *Client) Start(p *Placement) error {
	tc := tripCalls.Get().(*tripCall)
	defer tripCalls.Put(tc)
	tc.submit = protocol.SubmitReq{User: c.User, Token: c.token(), JobID: p.JobID, Contract: p.Contract}
	return c.rpcPool().Call(p.Server.Addr, c.RPCTimeout, protocol.TypeSubmitReq,
		&tc.submit, protocol.TypeSubmitOK, &tc.submitOK)
}

// Status queries the job's current state from its daemon.
func (c *Client) Status(p *Placement) (protocol.StatusOK, error) {
	var reply protocol.StatusOK
	err := c.rpcPool().Call(p.Server.Addr, c.RPCTimeout, protocol.TypeStatusReq,
		protocol.StatusReq{Token: c.token(), JobID: p.JobID},
		protocol.TypeStatusOK, &reply)
	return reply, err
}

// WaitFinished polls until the job reaches a terminal state or the
// timeout elapses.
func (c *Client) WaitFinished(p *Placement, timeout time.Duration) (protocol.StatusOK, error) {
	deadline := time.Now().Add(timeout)
	for {
		st, err := c.Status(p)
		if err != nil {
			return st, err
		}
		switch st.State {
		case "finished", "rejected", "killed":
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("client: job %s still %s after %v", p.JobID, st.State, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Kill terminates the job on its daemon (only the submitting user may).
func (c *Client) Kill(p *Placement) (protocol.KillOK, error) {
	var reply protocol.KillOK
	err := c.rpcPool().Call(p.Server.Addr, c.RPCTimeout, protocol.TypeKillReq,
		protocol.KillReq{User: c.User, Token: c.token(), JobID: p.JobID},
		protocol.TypeKillOK, &reply)
	return reply, err
}

// FetchOutput downloads a complete output file from the daemon.
func (c *Client) FetchOutput(p *Placement, name string) ([]byte, error) {
	conn, err := c.dial(p.Server.Addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	var out []byte
	off := int64(0)
	for {
		var reply protocol.OutputOK
		err := protocol.CallTimeout(conn, c.RPCTimeout, protocol.TypeOutputReq,
			protocol.OutputReq{Token: c.token(), JobID: p.JobID, Name: name, Offset: off, Limit: 1 << 20},
			protocol.TypeOutputOK, &reply)
		if err != nil {
			return nil, fmt.Errorf("client: fetch %s: %w", name, err)
		}
		out = append(out, reply.Data...)
		off += int64(len(reply.Data))
		if reply.EOF {
			if reply.SHA256 != "" && reply.SHA256 != stage.Digest(out) {
				return nil, fmt.Errorf("client: fetch %s: integrity check failed", name)
			}
			return out, nil
		}
	}
}

// Watch streams a job's AppSpector telemetry to fn until the stream ends
// or fn returns false. FromStart replays the buffered history first.
func (c *Client) Watch(jobID string, fromStart bool, fn func(protocol.Telemetry) bool) error {
	if c.AppSpectorAddr == "" {
		return errors.New("client: no AppSpector address configured")
	}
	conn, err := c.dial(c.AppSpectorAddr)
	if err != nil {
		return err
	}
	defer conn.Close()
	// Deadline-guard the subscribe handshake only; the telemetry stream
	// that follows is long-lived by design.
	_ = conn.SetDeadline(time.Now().Add(protocol.Timeout(c.RPCTimeout)))
	if err := protocol.WriteFrame(conn, protocol.TypeWatchReq, protocol.WatchReq{Token: c.token(), JobID: jobID, FromStart: fromStart}); err != nil {
		return err
	}
	f, err := protocol.ReadFrame(conn)
	if err != nil {
		return err
	}
	_ = conn.SetDeadline(time.Time{})
	if f.Type == protocol.TypeError {
		var e protocol.ErrorBody
		_ = protocol.Decode(f, protocol.TypeError, &e)
		return fmt.Errorf("client: watch: %s", e.Message)
	}
	if f.Type != protocol.TypeWatchOK {
		return fmt.Errorf("client: watch: unexpected frame %q", f.Type)
	}
	for {
		f, err := protocol.ReadFrame(conn)
		if err != nil {
			return err
		}
		if f.Type == protocol.TypeWatchEnd {
			return nil
		}
		var t protocol.Telemetry
		if err := protocol.Decode(f, protocol.TypeTelemetry, &t); err != nil {
			return err
		}
		if !fn(t) {
			return nil
		}
	}
}
