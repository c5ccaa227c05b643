// Market mechanisms. The paper fixes a single first-price sealed-bid
// auction (§5.3); the Buyya economic-models line (PAPERS.md) enumerates
// the wider design space a grid economy should be able to swap in.
// Mechanism generalizes the award path into solicit → rank → award →
// price so those alternatives plug into the same two-phase commit and
// breaker machinery:
//
//   - FirstPrice: the paper's protocol. Winner pays its own bid.
//   - Vickrey: second-price sealed-bid reverse auction. Same
//     solicitation fan-out, but the winner is paid the runner-up's
//     price — bidding true cost becomes the dominant strategy, at the
//     expense of higher buyer spend.
//   - PostedPrice: commodity market. Servers publish a price derived
//     from their weather; the buyer takes the cheapest feasible post
//     with no bid round trip at all. Commit risk moves to award time:
//     a post is only an advertisement, so the commit walk may fall
//     through more often under contention.
package market

import (
	"fmt"
	"slices"

	"faucets/internal/bidding"
	"faucets/internal/qos"
)

// Mechanism is a pluggable market mechanism: how offers are gathered
// and what the winner actually pays. Implementations must keep
// Solicit's ranking deterministic for a fixed offer set (rankBids'
// server-name tie-break guarantees this for the provided helpers).
type Mechanism interface {
	// Name is the wire name carried in qos.Contract.Mechanism.
	Name() string
	// Solicit gathers offers for the contract, ranked best-first under
	// the criterion, appending them to dst[:0]: the result is the
	// caller's buffer, valid until its next Solicit into it (nil dst
	// allocates).
	Solicit(dst []bidding.Bid, now float64, servers []ServerPort, c *qos.Contract, crit Criterion, opts SolicitOpts) []bidding.Bid
	// ClearingPrice returns the price actually paid when the offer at
	// rank i of the ranked list wins the award.
	ClearingPrice(ranked []bidding.Bid, i int) float64
}

// PostPort is a ServerPort whose posted commodity price can be read
// without a bid round trip: in live mode the post is computed locally
// from the server's directory listing (spec + published weather); in
// simulation the entity quotes it from its own scheduler state. ok
// false means the server has no feasible post for this contract.
type PostPort interface {
	ServerPort
	Post(now float64, c *qos.Contract) (bidding.Bid, bool)
}

// FirstPrice is the paper's first-price sealed-bid auction: solicit
// everyone, winner pays its own bid. The zero value is ready to use.
type FirstPrice struct{}

// Name implements Mechanism.
func (FirstPrice) Name() string { return qos.MechanismFirstPrice }

// ClearingPrice implements Mechanism: the winner pays what it bid.
func (FirstPrice) ClearingPrice(ranked []bidding.Bid, i int) float64 {
	return ranked[i].Price
}

// Vickrey is the second-price sealed-bid reverse auction: solicitation
// is FirstPrice's, embedded (same fan-out and breakers), but
// the winner is paid the runner-up's price. When no runner-up exists —
// the winner was the only standing offer — it pays its own bid, the
// only price the auction discovered.
type Vickrey struct{ FirstPrice }

// Name implements Mechanism.
func (Vickrey) Name() string { return qos.MechanismVickrey }

// ClearingPrice implements Mechanism: the offer ranked directly below
// the winner sets the price.
func (Vickrey) ClearingPrice(ranked []bidding.Bid, i int) float64 {
	if i+1 < len(ranked) {
		return ranked[i+1].Price
	}
	return ranked[i].Price
}

// PostedPrice is the commodity-market mechanism: no request-for-bids
// broadcast. Each server's posted price is read locally (PostPort) and
// the posts are ranked under the same criterion; servers that cannot
// post (ports without Post, or no feasible post) simply have no offer.
// The walk is serial because reading a post is a local computation —
// there is nothing to fan out.
type PostedPrice struct{}

// Name implements Mechanism.
func (PostedPrice) Name() string { return qos.MechanismPostedPrice }

// Solicit implements Mechanism. Gate is still honoured so circuit
// breakers keep sick servers out of the commodity market too.
func (PostedPrice) Solicit(dst []bidding.Bid, now float64, servers []ServerPort, c *qos.Contract, crit Criterion, opts SolicitOpts) []bidding.Bid {
	bids := slices.Grow(dst[:0], len(servers))
	for _, s := range servers {
		pp, ok := s.(PostPort)
		if !ok {
			continue
		}
		if opts.Gate != nil && !opts.Gate(s) {
			continue // breaker OPEN: no post this auction
		}
		if b, ok := pp.Post(now, c); ok {
			bids = append(bids, b)
		}
	}
	rankBids(bids, crit)
	return bids
}

// ClearingPrice implements Mechanism: the buyer pays the post.
func (PostedPrice) ClearingPrice(ranked []bidding.Bid, i int) float64 {
	return ranked[i].Price
}

// ForName resolves a mechanism name from qos.Contract.Mechanism (or a
// -mechanism flag). The empty string selects the default first-price
// auction.
func ForName(name string) (Mechanism, error) {
	switch name {
	case "", qos.MechanismFirstPrice:
		return FirstPrice{}, nil
	case qos.MechanismVickrey:
		return Vickrey{}, nil
	case qos.MechanismPostedPrice:
		return PostedPrice{}, nil
	}
	return nil, fmt.Errorf("market: %w: %q", qos.ErrMechanism, name)
}
