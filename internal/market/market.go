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

// Criterion orders bids; Compare is negative when a is preferable to b,
// positive when b is, and zero when neither is.
type Criterion interface {
	Name() string
	Compare(a, b *bidding.Bid) int
}

// less3 is -1 if x < y, +1 if y < x, else 0: NaN ties with everything.
func less3(x, y float64) int {
	switch {
	case x < y:
		return -1
	case y < x:
		return 1
	}
	return 0
}

// LeastCost prefers the cheapest bid, breaking ties by earlier promised
// completion.
type LeastCost struct{}

// Name implements Criterion.
func (LeastCost) Name() string { return "least-cost" }

// Compare implements Criterion.
func (LeastCost) Compare(a, b *bidding.Bid) int {
	if a.Price != b.Price {
		return less3(a.Price, b.Price)
	}
	return less3(a.EstCompletion, b.EstCompletion)
}

// EarliestCompletion prefers the soonest promised completion, breaking
// ties by price.
type EarliestCompletion struct{}

// Name implements Criterion.
func (EarliestCompletion) Name() string { return "earliest-completion" }

// Compare implements Criterion.
func (EarliestCompletion) Compare(a, b *bidding.Bid) int {
	if a.EstCompletion != b.EstCompletion {
		return less3(a.EstCompletion, b.EstCompletion)
	}
	return less3(a.Price, b.Price)
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

// Compare implements Criterion.
func (w Weighted) Compare(a, b *bidding.Bid) int {
	return less3(w.PriceWeight*a.Price+w.TimeWeight*a.EstCompletion, w.PriceWeight*b.Price+w.TimeWeight*b.EstCompletion)
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
	// is the serial walk on the caller's goroutine.
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
}

// DefaultFanout is the concurrency cap used when SolicitOpts.Concurrency
// is unset: min(DefaultFanout, len(servers)).
const DefaultFanout = 16

// rankBids orders bids best-first under the criterion with a server-name
// tie-break. The tie-break makes the ranking a total order over any bid
// set with distinct servers, so the result is independent of arrival
// order — parallel and serial solicitation of the same bid set produce
// byte-identical rankings.
//
// It stable-sorts a permutation (on the stack up to 64 bids), which sees
// the very comparisons sorting the bids would — NaNs included — and then
// moves each bid once, cycle by cycle.
func rankBids(bids []bidding.Bid, crit Criterion) {
	var stack [64]int32
	perm := stack[:0]
	for i := range bids {
		perm = append(perm, int32(i))
	}
	slices.SortStableFunc(perm, func(i, j int32) int {
		a, b := &bids[i], &bids[j]
		if c := crit.Compare(a, b); c != 0 {
			return c
		}
		return strings.Compare(a.Server, b.Server)
	})
	for i := range perm { // bids[k] takes the old bids[perm[k]]; a placed bid has perm[k] == k
		first, k := bids[i], i
		for int(perm[k]) != i {
			bids[k], perm[k], k = bids[perm[k]], int32(k), int(perm[k])
		}
		bids[k], perm[k] = first, int32(k)
	}
}

// BidStarter is a ServerPort that can answer a request-for-bids as a
// completion instead of blocking a goroutine for the round trip: StartBid
// returns once the request is on its way, and the sink's DeliverBid is
// called exactly once, from any goroutine, with what RequestBid would
// have returned; after that call the sink may belong to the next round.
// The concurrent collector launches such ports on the caller's goroutine
// (wire ports write their request there) and blocking ports on a
// goroutine of their own.
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
// best-first under the criterion, in a new slice: it is FirstPrice's
// Solicit with no buffer to reuse. Bids land in per-server slots and
// server name breaks criterion ties, so the ranking is independent of
// reply timing and awards are deterministic for seeded workloads.
//
// Requests fan out concurrently, so ports must be safe for concurrent
// RequestBid calls (wire ports are). The exception is Concurrency 1 with
// no per-bid deadline: that walk runs inline on the caller's goroutine,
// one server at a time — the only legal path for single-threaded
// simulation entities, and the reference every concurrent configuration
// must match bid-for-bid.
func SolicitWith(now float64, servers []ServerPort, c *qos.Contract, crit Criterion, opts SolicitOpts) []bidding.Bid {
	return FirstPrice{}.Solicit(nil, now, servers, c, crit, opts)
}

// Solicit implements Mechanism: SolicitWith's request-for-bids fan-out,
// ranked into dst[:0].
func (FirstPrice) Solicit(dst []bidding.Bid, now float64, servers []ServerPort, c *qos.Contract, crit Criterion, opts SolicitOpts) []bidding.Bid {
	n := len(servers)
	if n == 0 {
		return dst[:0]
	}
	conc := min(opts.Concurrency, n)
	if conc <= 0 {
		conc = min(DefaultFanout, n)
	}
	if conc == 1 && opts.Timeout <= 0 {
		bids := slices.Grow(dst[:0], n)
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
	return collect(dst, now, servers, c, crit, opts, conc)
}

// collect is the concurrent round: one attempt per gated-in server.
// There are no workers and no queue: the caller's goroutine is the
// auction's only launcher. It starts up to conc attempts in server
// order, sleeps until a completion reports that every server has
// answered or forfeited or that the bound has room for the next one,
// and launches again. A completion only records its answer under the
// lock and signals, so it is safe to run on a connection's read
// goroutine.
//
// The round comes from a pool and goes back only when quiescent: every
// attempt delivered by its port, its deadline stopped unfired. One that a
// forfeited attempt can still reach is the GC's.
func collect(dst []bidding.Bid, now float64, servers []ServerPort, c *qos.Contract, crit Criterion, opts SolicitOpts, conc int) []bidding.Bid {
	a := rounds.Get().(*auction)
	a.now, a.servers, a.c, a.timeout, a.conc, a.wake.L = now, servers, c, opts.Timeout, conc, &a.mu
	a.attempts = slices.Grow(a.attempts[:0], len(servers)) // filled before any launch: ports hold pointers into it
	for i, s := range servers {
		if opts.Gate != nil && !opts.Gate(s) {
			continue // breaker OPEN: instant forfeit, nothing launched
		}
		a.attempts = append(a.attempts, attempt{a: a, i: i})
	}
	a.left, a.running, a.launched, a.released = len(a.attempts), 0, 0, 0
	a.mu.Lock()
	for a.left > 0 {
		if a.launched < len(a.attempts) && a.running < a.conc {
			t := &a.attempts[a.launched]
			a.launched++
			a.running++
			a.mu.Unlock()
			a.launch(t)
			a.mu.Lock()
		} else {
			a.wake.Wait()
		}
	}
	bids := slices.Grow(dst[:0], len(servers))
	for i := range a.attempts {
		if t := &a.attempts[i]; t.got {
			bids = append(bids, t.bid)
		}
	}
	quiet := a.released == len(a.attempts)
	a.mu.Unlock()
	if quiet {
		a.servers, a.c = nil, nil
		rounds.Put(a)
	}
	rankBids(bids, crit)
	return bids
}

var rounds = sync.Pool{New: func() any { return new(auction) }}

// auction is the state of one concurrent request-for-bids round. The
// caller's goroutine launches; completions write each answer straight
// into that server's attempt.
type auction struct {
	now      float64
	servers  []ServerPort
	c        *qos.Contract
	timeout  time.Duration
	conc     int
	attempts []attempt // one per gated-in server, in server order; kept across rounds

	mu       sync.Mutex
	wake     sync.Cond // the launcher sleeps here
	left     int       // attempts not yet answered or forfeited
	running  int       // attempts outstanding, bounded by conc
	launched int       // attempts[:launched] have been started
	released int       // attempts no port or timer will touch again
}

// attempt is one server's request in a concurrent round.
type attempt struct {
	a        *auction
	i        int
	bid      bidding.Bid
	got      bool        // bid holds the server's offer; under a.mu
	done     bool        // the answer or the forfeit has counted; under a.mu
	deadline *time.Timer // the per-bid deadline, if any; set before the port is asked
}

// DeliverBid is the port's side: the attempt is the BidSink handed to
// StartBid. A deadline stopped here never runs; one that fired may be.
func (t *attempt) DeliverBid(b bidding.Bid, ok bool) {
	t.a.finish(t, b, ok, t.deadline == nil || t.deadline.Stop())
}

// forfeit is the deadline's side: the server has not answered in time,
// the attempt is abandoned (the transport's own deadline eventually
// reaps the underlying RPC) and the auction proceeds without that bid.
func (t *attempt) forfeit() { t.a.finish(t, bidding.Bid{}, false, false) }

// ask is the goroutine a port that can only block is given.
func (t *attempt) ask() { t.DeliverBid(t.a.servers[t.i].RequestBid(t.a.now, t.a.c)) }

// launch starts one attempt, without holding a.mu.
func (a *auction) launch(t *attempt) {
	if a.timeout > 0 {
		t.deadline = time.AfterFunc(a.timeout, t.forfeit)
	}
	if s, ok := a.servers[t.i].(BidStarter); ok {
		s.StartBid(a.now, a.c, t)
	} else {
		go t.ask()
	}
}

// finish records one attempt's outcome: of its answer and its forfeit
// the first counts, so a server never holds two bids and a late answer
// changes nothing. released says neither its port nor its timer will
// touch the attempt again.
func (a *auction) finish(t *attempt, b bidding.Bid, ok, released bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if released {
		a.released++
	}
	if t.done {
		return
	}
	t.done, t.bid, t.got = true, b, ok
	a.running--
	a.left--
	if a.left == 0 || a.launched < len(a.attempts) {
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
