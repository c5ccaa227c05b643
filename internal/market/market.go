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
	bids := make([]bidding.Bid, 0, n)
	if conc == 1 && opts.Timeout <= 0 && !hedge {
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

	// Every attempt — original or hedge — is an index on the queue, so
	// the channel never carries a bid and never blocks a sender: each
	// server is enqueued at most twice.
	a := &auction{now: now, servers: servers, c: c, timeout: opts.Timeout,
		slots: make([]slot, n), queue: make(chan int, 2*n)}
	for i, s := range servers {
		if opts.Gate != nil && !opts.Gate(s) {
			continue // breaker OPEN: instant forfeit, no goroutine spent
		}
		a.slots[i].inflight = 1
		a.left++
		a.queue <- i
	}
	if a.left == 0 {
		return bids // every server gated out
	}
	if hedge {
		a.hedgeAt = a.left - max(1, int(math.Ceil(opts.HedgeQuantile*float64(a.left))))
	}
	if a.hedgeAt == 0 {
		close(a.queue) // nothing will be re-enqueued: workers leave as it drains
	}
	a.open.Add(1)
	for w := min(conc, a.left); w > 0; w-- {
		go a.work()
	}
	// Wait for every gated-in server to resolve, not for every attempt to
	// return: an attempt whose sibling already answered is abandoned (it
	// finds its slot taken and changes nothing).
	a.open.Wait()
	a.mu.Lock()
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
	inflight int8 // attempts queued or running
}

// auction is the state of one concurrent request-for-bids round: a
// bounded set of workers drains a queue of server indices and writes
// each answer straight into that server's slot.
type auction struct {
	now     float64
	servers []ServerPort
	c       *qos.Contract
	timeout time.Duration
	queue   chan int
	open    sync.WaitGroup // held until every gated-in server has resolved

	mu      sync.Mutex
	slots   []slot
	left    int // servers not yet resolved
	hedgeAt int // hedge once only this many are left; 0 = off or spent
}

func (a *auction) work() {
	for i := range a.queue {
		b, ok := requestBidTimeout(a.now, a.servers[i], a.c, a.timeout)
		a.finish(i, b, ok)
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
	s := &a.slots[i]
	s.inflight--
	if s.resolved || (!ok && s.inflight > 0) {
		return
	}
	s.bid, s.got, s.resolved = b, ok, true
	a.left--
	if a.left == 0 {
		a.open.Done()
	} else if a.left <= a.hedgeAt {
		a.hedgeAt = 0
		for j := range a.slots {
			if o := &a.slots[j]; !o.resolved && o.inflight > 0 {
				o.inflight++
				a.queue <- j
			}
		}
		close(a.queue)
	}
}

// requestBidTimeout runs one RequestBid under an optional deadline. On
// timeout the server forfeits: the call is abandoned (the goroutine
// drains into a buffered channel and the transport's own deadline
// eventually reaps the underlying RPC) and the auction proceeds without
// that bid.
func requestBidTimeout(now float64, s ServerPort, c *qos.Contract, d time.Duration) (bidding.Bid, bool) {
	if d <= 0 {
		return s.RequestBid(now, c)
	}
	type reply struct {
		b  bidding.Bid
		ok bool
	}
	ch := make(chan reply, 1)
	go func() {
		b, ok := s.RequestBid(now, c)
		ch <- reply{b, ok}
	}()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case r := <-ch:
		return r.b, r.ok
	case <-t.C:
		return bidding.Bid{}, false
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
	byName := make(map[string]ServerPort, len(servers))
	for _, s := range servers {
		byName[s.ServerName()] = s
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
		s, ok := byName[b.Server]
		if !ok {
			continue
		}
		b.Price = m.ClearingPrice(ranked, i)
		res.Attempts++
		if err := s.Commit(now, jobID, b); err != nil {
			res.Declined = append(res.Declined, b.Server)
			lastErr = fmt.Errorf("%w: %s: %v", ErrConflict, b.Server, err)
			continue
		}
		res.Bid = b
		return res, nil
	}
	if lastErr == nil {
		lastErr = ErrNoBids
	}
	return res, lastErr
}
