// Package market implements the market-efficient server-selection
// machinery of paper §5: the request-for-bids broadcast, client-side bid
// evaluation ("each client receives all the bids and selects one of the
// Compute Servers for the job based on a simple criteria, such as least
// cost, or earliest promised completion time", §5.3), and the two-phase
// commit the paper identifies as necessary for larger grids ("a two
// phase protocol will be needed to get a firm commitment from the
// selected Compute Server, which may have received a more lucrative job
// in between", §5.3). There is one of each: SolicitWith ranks the
// bids, CommitPriced gets the commitment at the Mechanism's price.
package market

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"faucets/internal/bidding"
	"faucets/internal/qos"
)

// ServerPort is a Compute Server as seen by a bidding client: in live
// mode this is a socket connection to a Faucets Daemon; in simulation it
// is the server entity directly.
type ServerPort interface {
	// ServerName identifies the Compute Server.
	ServerName() string
	// RequestBid solicits a bid for the contract at time now. ok == false
	// means the server declines.
	RequestBid(now float64, c *qos.Contract) (bidding.Bid, bool)
	// Commit asks the server to firmly commit to a previously returned
	// bid (phase two). The server may refuse — the bid expired or the
	// capacity was promised to someone else in between.
	Commit(now float64, jobID string, b bidding.Bid) error
}

// Criterion orders bids; Less reports whether a is preferable to b.
type Criterion interface {
	Name() string
	Less(a, b bidding.Bid) bool
}

// LeastCost prefers the cheapest bid, breaking ties by earlier promised
// completion.
type LeastCost struct{}

// Name implements Criterion.
func (LeastCost) Name() string { return "least-cost" }

// Less implements Criterion.
func (LeastCost) Less(a, b bidding.Bid) bool {
	if a.Price != b.Price {
		return a.Price < b.Price
	}
	return a.EstCompletion < b.EstCompletion
}

// EarliestCompletion prefers the soonest promised completion, breaking
// ties by price.
type EarliestCompletion struct{}

// Name implements Criterion.
func (EarliestCompletion) Name() string { return "earliest-completion" }

// Less implements Criterion.
func (EarliestCompletion) Less(a, b bidding.Bid) bool {
	if a.EstCompletion != b.EstCompletion {
		return a.EstCompletion < b.EstCompletion
	}
	return a.Price < b.Price
}

// Weighted scores bids as PriceWeight·price + TimeWeight·completion and
// prefers the lower score — the "user-specific selection criteria" the
// client agents of §5.3 carry.
type Weighted struct {
	PriceWeight float64
	TimeWeight  float64
}

// Name implements Criterion.
func (w Weighted) Name() string { return "weighted" }

// Less implements Criterion.
func (w Weighted) Less(a, b bidding.Bid) bool {
	sa := w.PriceWeight*a.Price + w.TimeWeight*a.EstCompletion
	sb := w.PriceWeight*b.Price + w.TimeWeight*b.EstCompletion
	return sa < sb
}

// Errors from the award protocol.
var (
	ErrNoBids   = errors.New("market: no server bid for the job")
	ErrConflict = errors.New("market: server refused to commit (bid superseded)")
	ErrExpired  = errors.New("market: bid expired before commit")
)

// SolicitOpts tunes the request-for-bids fan-out.
type SolicitOpts struct {
	// Concurrency bounds the number of in-flight RequestBid calls.
	// <= 0 selects the default, min(16, len(servers)); 1 with no Timeout
	// and no hedging is the serial walk on the caller's goroutine.
	Concurrency int
	// Timeout bounds each individual RequestBid. A server that has not
	// answered within the deadline forfeits its bid for this auction —
	// one hung daemon must not stall the whole broadcast. <= 0 disables
	// the per-bid deadline (the transport's own deadline still applies).
	Timeout time.Duration
	// Gate, when set, is consulted once per server before its request
	// is launched; false skips the server for this auction — an instant
	// forfeit with no goroutine and no deadline spent. Wire clients
	// point this at the per-address circuit breaker so an OPEN daemon
	// costs the auction nothing instead of a per-bid timeout.
	Gate func(s ServerPort) bool
	// HedgeQuantile in (0,1) enables hedged solicitation: once that
	// fraction of the gated-in servers has resolved, every request
	// still outstanding — the auction's own slow tail — is re-issued
	// once to the same server. First response wins per server, so a
	// hedge can never double a server's bid and awards stay
	// duplicate-safe. <= 0 (or >= 1) disables hedging.
	HedgeQuantile float64
}

// DefaultFanout is the concurrency cap used when SolicitOpts.Concurrency
// is unset: min(DefaultFanout, len(servers)).
const DefaultFanout = 16

// rankBids orders bids best-first under the criterion with a server-name
// tie-break. The tie-break makes the ranking a total order over any bid
// set with distinct servers, so the result is independent of arrival
// order — parallel and serial solicitation of the same bid set produce
// byte-identical rankings.
func rankBids(bids []bidding.Bid, crit Criterion) {
	slices.SortStableFunc(bids, func(a, b bidding.Bid) int {
		switch {
		case crit.Less(a, b):
			return -1
		case crit.Less(b, a):
			return 1
		}
		return strings.Compare(a.Server, b.Server)
	})
}

// BidStarter is a ServerPort that can answer a request-for-bids as a
// completion instead of blocking a goroutine for the round trip: StartBid
// returns once the request is on its way, and the sink's DeliverBid is
// called exactly once, from any goroutine, with what RequestBid would
// have returned. The concurrent collector launches such ports on the
// caller's goroutine (wire ports write their request there) and blocking
// ports on a goroutine of their own.
type BidStarter interface {
	ServerPort
	StartBid(now float64, c *qos.Contract, sink BidSink)
}

// BidSink is where a BidStarter delivers its answer. It is an interface
// the collector's per-attempt record implements, not a func: a method
// value would be a closure allocated per bid.
type BidSink interface {
	DeliverBid(b bidding.Bid, ok bool)
}

// SolicitWith broadcasts a request-for-bids to the given servers (less
// any the gate skips; pre-screening is the caller's or the Central
// Server's filters', §5.1) and returns all offers, stably sorted
// best-first under the criterion. Bids land in per-server slots and
// server name breaks criterion ties, so the ranking is independent of
// reply timing and awards are deterministic for seeded workloads.
//
// Requests fan out concurrently, so ports must be safe for concurrent
// RequestBid calls (wire ports are). The exception is Concurrency 1 with
// no per-bid deadline and no hedging: that walk runs inline on the
// caller's goroutine, one server at a time — the only legal path for
// single-threaded simulation entities, and the reference every
// concurrent configuration must match bid-for-bid.
func SolicitWith(now float64, servers []ServerPort, c *qos.Contract, crit Criterion, opts SolicitOpts) []bidding.Bid {
	n := len(servers)
	if n == 0 {
		return nil
	}
	hedge := opts.HedgeQuantile > 0 && opts.HedgeQuantile < 1
	conc := min(opts.Concurrency, n)
	if conc <= 0 {
		conc = min(DefaultFanout, n)
	}
	if conc == 1 && opts.Timeout <= 0 && !hedge {
		bids := make([]bidding.Bid, 0, n)
		for _, s := range servers {
			if opts.Gate != nil && !opts.Gate(s) {
				continue // breaker OPEN: instant forfeit
			}
			if b, ok := s.RequestBid(now, c); ok {
				bids = append(bids, b)
			}
		}
		rankBids(bids, crit)
		return bids
	}
	return collect(now, servers, c, crit, opts, conc, hedge)
}

// collect is the concurrent round. There are no workers and no queue:
// the caller's goroutine is the auction's only launcher. It starts up to
// conc attempts, sleeps until a completion reports that every server
// has resolved or that something is waiting to be launched (the next
// server in line once an attempt returns, or a hedge), and launches
// again. A completion only records its answer under the lock and
// signals, so it is safe to run on a connection's read goroutine.
func collect(now float64, servers []ServerPort, c *qos.Contract, crit Criterion, opts SolicitOpts, conc int, hedge bool) []bidding.Bid {
	n := len(servers)
	a := &auction{now: now, servers: servers, c: c, timeout: opts.Timeout, conc: conc, slots: make([]slot, n)}
	a.wake.L = &a.mu
	for i, s := range servers {
		if opts.Gate != nil && !opts.Gate(s) {
			continue // breaker OPEN: instant forfeit, nothing launched
		}
		a.slots[i].inflight, a.slots[i].queued = 1, 1
		a.left++
	}
	a.queued = a.left
	if hedge {
		a.hedgeAt = a.left - max(1, int(math.Ceil(opts.HedgeQuantile*float64(a.left))))
	}
	a.attempts = make([]attempt, 0, a.left+a.hedgeAt)
	// Wait for every gated-in server to resolve, not for every attempt to
	// return: an attempt whose sibling already answered is abandoned (it
	// finds its slot taken and changes nothing).
	a.mu.Lock()
	for a.left > 0 {
		if i, ok := a.next(); ok {
			a.mu.Unlock()
			a.launch(i)
			a.mu.Lock()
		} else {
			a.wake.Wait()
		}
	}
	bids := make([]bidding.Bid, 0, n)
	for i := range a.slots {
		if a.slots[i].got {
			bids = append(bids, a.slots[i].bid)
		}
	}
	a.mu.Unlock()
	rankBids(bids, crit)
	return bids
}

// slot is one server's place in a concurrent auction.
type slot struct {
	bid      bidding.Bid
	got      bool // bid holds the server's offer
	resolved bool // the server has answered, declined or forfeited
	inflight int8 // attempts waiting to be launched or outstanding
	queued   int8 // of those, the ones still waiting
}

// auction is the state of one concurrent request-for-bids round. The
// caller's goroutine launches; completions write each answer straight
// into that server's slot.
type auction struct {
	now      float64
	servers  []ServerPort
	c        *qos.Contract
	timeout  time.Duration
	conc     int
	attempts []attempt // launcher-owned backing store: one allocation per round

	mu      sync.Mutex
	wake    sync.Cond // the launcher sleeps here
	slots   []slot
	left    int // servers not yet resolved
	hedgeAt int // hedge once only this many are left; 0 = off or spent
	running int // attempts outstanding, bounded by conc
	queued  int // attempts waiting to be launched
	cursor  int // launch order: slots 0..n-1 for the originals, n..2n-1 for the hedges
}

// next claims the next attempt in line, if there is one and the
// concurrency bound has room: every original in server order, then one
// re-issue per hedged server in the same order. The caller holds a.mu.
func (a *auction) next() (int, bool) {
	n := len(a.slots)
	for a.queued > 0 && a.running < a.conc {
		i := a.cursor % n
		a.cursor++
		s := &a.slots[i]
		if s.queued == 0 {
			continue
		}
		s.queued--
		a.queued--
		if s.resolved {
			s.inflight-- // its sibling answered first: nothing to re-issue
			continue
		}
		a.running++
		return i, true
	}
	return 0, false
}

// attempt is one launched request, original or hedge.
type attempt struct {
	a        *auction
	i        int
	fired    atomic.Bool
	deadline *time.Timer // the per-bid deadline, if any; set before the port is asked
}

// complete ends the attempt exactly once: of the port's answer and the
// deadline's forfeit the first counts and the other changes nothing.
func (t *attempt) complete(b bidding.Bid, ok bool) {
	if t.fired.CompareAndSwap(false, true) {
		t.a.finish(t.i, b, ok)
	}
}

// DeliverBid is the port's side of complete: the attempt is the BidSink
// handed to StartBid.
func (t *attempt) DeliverBid(b bidding.Bid, ok bool) {
	if t.deadline != nil {
		t.deadline.Stop()
	}
	t.complete(b, ok)
}

// forfeit is the deadline's side: the server has not answered in time,
// the attempt is abandoned (the transport's own deadline eventually
// reaps the underlying RPC) and the auction proceeds without that bid.
func (t *attempt) forfeit() { t.complete(bidding.Bid{}, false) }

// ask is the goroutine a port that can only block is given.
func (t *attempt) ask() { t.DeliverBid(t.a.servers[t.i].RequestBid(t.a.now, t.a.c)) }

// launch starts one attempt on server i, without holding a.mu.
func (a *auction) launch(i int) {
	a.attempts = append(a.attempts, attempt{a: a, i: i})
	t := &a.attempts[len(a.attempts)-1]
	if a.timeout > 0 {
		t.deadline = time.AfterFunc(a.timeout, t.forfeit)
	}
	if s, ok := a.servers[i].(BidStarter); ok {
		s.StartBid(a.now, a.c, t)
	} else {
		go t.ask()
	}
}

// finish records one attempt's outcome. The first positive answer wins
// the server's slot — a server can never hold two, so commits stay
// duplicate-safe — and a decline resolves it only once no sibling
// attempt remains. When the hedge quantile of servers has resolved, the
// quantile latency for this auction is known and everything still
// outstanding is already slower than that: each is re-issued once to
// the same server. Hedging changes when bids arrive, never how they
// rank.
func (a *auction) finish(i int, b bidding.Bid, ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.running--
	s := &a.slots[i]
	s.inflight--
	if !s.resolved && (ok || s.inflight == 0) {
		s.bid, s.got, s.resolved = b, ok, true
		a.left--
		if a.left > 0 && a.left <= a.hedgeAt {
			a.hedgeAt = 0
			for j := range a.slots {
				if o := &a.slots[j]; !o.resolved && o.inflight > 0 {
					o.inflight++
					o.queued++
					a.queued++
				}
			}
		}
	}
	if a.left == 0 || a.queued > 0 {
		a.wake.Signal() // all resolved, or a slot just freed for the next in line
	}
}

// AwardResult describes a completed auction.
type AwardResult struct {
	Bid bidding.Bid
	// Attempts counts commit attempts, including the successful one —
	// the contention statistic experiment E8 measures.
	Attempts int
	// Declined lists servers whose commit was refused.
	Declined []string
	// Port is the index in servers of the port that committed.
	Port int
}

// CommitPriced walks an already-ranked bid list asking each server in
// turn for a firm commitment (phase two), skipping expired offers. Each
// attempt carries the mechanism's clearing price for that rank; the
// server records and settles whatever price the commit carries, so this
// is the single point where a mechanism's economics take effect. With
// singlePhase set only the best bid is tried — the naive protocol
// experiment E8 contrasts, where a refusal is a failed placement. now
// is commit time, later than the solicitation, which is exactly when
// conflicts appear: the chosen server "may have received a more
// lucrative job in between" (§5.3).
func CommitPriced(now float64, servers []ServerPort, ranked []bidding.Bid, jobID string, singlePhase bool, m Mechanism) (AwardResult, error) {
	if len(ranked) == 0 {
		return AwardResult{}, ErrNoBids
	}
	tried := ranked
	if singlePhase {
		tried = ranked[:1]
	}
	res := AwardResult{}
	var lastErr error
	for i, b := range tried {
		if b.ExpiresAt > 0 && now > b.ExpiresAt {
			lastErr = fmt.Errorf("%w: %s", ErrExpired, b.Server)
			continue
		}
		// A scan, not a per-call name map: a commit walk rarely goes past
		// the first bid and a fleet is tens of names.
		at := slices.IndexFunc(servers, func(s ServerPort) bool { return s.ServerName() == b.Server })
		if at < 0 {
			continue
		}
		b.Price = m.ClearingPrice(ranked, i)
		res.Attempts++
		if err := servers[at].Commit(now, jobID, b); err != nil {
			res.Declined = append(res.Declined, b.Server)
			lastErr = fmt.Errorf("%w: %s: %v", ErrConflict, b.Server, err)
			continue
		}
		res.Bid, res.Port = b, at
		return res, nil
	}
	if lastErr == nil {
		lastErr = ErrNoBids
	}
	return res, lastErr
}
