// Package accounting implements the alternative economic contexts of
// paper §5.5: pay-for-use Dollar billing (§5.5.1), Service-Unit quotas
// for academic allocations where bids are SU multipliers (§5.5.2), the
// bartering economy in which collaborating clusters earn and spend
// credits through a Home Cluster (§5.5.3), and the fair-usage tracking
// suggested for intranets (§5.5.4).
package accounting

import (
	"errors"
	"fmt"

	"faucets/internal/bidding"
	"faucets/internal/db"
)

// Mode selects the economic context.
type Mode int

// The billing modes of §5.5.
const (
	// Dollars: users pay cash per job (§5.5.1).
	Dollars Mode = iota
	// ServiceUnits: users draw from an SU quota; bids are multipliers on
	// the job's nominal SUs (§5.5.2).
	ServiceUnits
	// Barter: collaborating clusters exchange credits; a user's Home
	// Cluster pays the executing cluster (§5.5.3).
	Barter
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Dollars:
		return "dollars"
	case ServiceUnits:
		return "service-units"
	case Barter:
		return "barter"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Errors returned by the accountant.
var (
	ErrQuota    = errors.New("accounting: insufficient service-unit quota")
	ErrCredit   = errors.New("accounting: home cluster has insufficient credits")
	ErrNegative = errors.New("accounting: negative amount")
)

// Accountant settles job payments in a chosen mode over the shared
// database. All balances — SU quotas, per-server revenue, per-user
// spend, credit ledger — live in the database, so an Accountant over a
// durable db (db.Open) forgets nothing across a Central Server restart.
// It holds no state of its own beyond the mode, so it is safe for
// concurrent use: each settlement is one database transaction.
type Accountant struct {
	mode Mode
	db   *db.DB
}

// New returns an Accountant in the given mode over the database.
func New(mode Mode, store *db.DB) *Accountant {
	return &Accountant{mode: mode, db: store}
}

// GrantQuota adds SUs to a user's allocation (§5.5.2: "users can then be
// allocated quota in terms of Service-Units as before").
func (a *Accountant) GrantQuota(user string, su float64) error {
	if su < 0 {
		return ErrNegative
	}
	a.db.AddQuota(user, su)
	return nil
}

// CanAfford reports whether the payer can cover a price before bids are
// even solicited: in ServiceUnits mode the user needs quota; in Barter
// mode an off-home placement needs that many home-cluster credits;
// Dollars mode always affords (credit risk is out of scope, as in the
// paper).
func (a *Accountant) CanAfford(user, homeCluster, server string, price float64) bool {
	switch a.mode {
	case ServiceUnits:
		return a.db.Quota(user) >= price
	case Barter:
		if homeCluster == "" || homeCluster == server {
			return true // running at home costs no credits
		}
		return a.db.Credits(homeCluster) >= price
	default:
		return true
	}
}

// Charge applies the billing rule for one finished job inside the
// caller's transaction. price is the accepted bid amount (Dollars or
// SUs); in Barter mode it is the credit transfer between the home
// cluster and the executing cluster, and running on the home cluster
// itself transfers nothing. On error nothing may be committed: the
// caller returns it from its Update.
func (a *Accountant) Charge(tx *db.Tx, user, homeCluster, server string, price float64) error {
	if price < 0 {
		return ErrNegative
	}
	switch a.mode {
	case Dollars:
		tx.AddRevenue(server, price)
	case ServiceUnits:
		if q := tx.Quota(user); q < price {
			return fmt.Errorf("%w: user %s has %.1f, needs %.1f", ErrQuota, user, q, price)
		}
		tx.AddQuota(user, -price)
		tx.AddRevenue(server, price)
	case Barter:
		if homeCluster != "" && homeCluster != server {
			if c := tx.Credits(homeCluster); c < price {
				return fmt.Errorf("%w: %s at %.1f, needs %.1f", ErrCredit, homeCluster, c, price)
			}
			if err := tx.TransferCredits(homeCluster, server, price); err != nil {
				return err
			}
		}
	}
	tx.AddSpend(user, price)
	return nil
}

// Book is the §5.5 settle of one finished job inside the caller's Tx, the
// rule the Central Server and gridsim share: Charge row.Price, then append
// row with the multiplier it was bid at. A refused charge books no row.
func (a *Accountant) Book(tx *db.Tx, user, homeCluster string, row *db.ContractRecord, cpuSeconds, costRate float64) error {
	if err := a.Charge(tx, user, homeCluster, row.Server, row.Price); err != nil {
		return err
	}
	row.Multiplier = bidding.MultiplierOf(row.Price, cpuSeconds, costRate)
	tx.AppendContract(*row)
	return nil
}

// Settle records payment for a finished job as one transaction of its
// own (Charge).
func (a *Accountant) Settle(jobID, user, homeCluster, server string, price float64) error {
	return a.db.Update(func(tx *db.Tx) error {
		return a.Charge(tx, user, homeCluster, server, price)
	})
}
