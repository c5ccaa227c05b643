// Package server is one Compute Server's decisions, written once for the
// daemon and gridsim: its bids (§5.2), whom a commit binds it to and for
// how long (§5.3), what it admits, and the work it has queued.
package server

import (
	"errors"
	"fmt"

	"faucets/internal/bidding"
	"faucets/internal/job"
	"faucets/internal/machine"
	"faucets/internal/qos"
	"faucets/internal/scheduler"
)

// BidValidity is how long a bid stands, in virtual seconds, and so how
// long a commit holds the server to its price.
const BidValidity = 300

// A lapsed commitment, or one a restart lost, is no commitment.
var (
	ErrNoCommitment = errors.New("no live commitment")
	ErrNotOwner     = errors.New("it belongs to another user")
	ErrRefused      = errors.New("refused at submission") // by the scheduler
)

// hold is a commit no submit has spent yet.
type hold struct {
	user           string
	price, expires float64
}

// Core is one Compute Server: its spec, scheduler and bidder, the work it
// has queued and the commits it holds. Every method takes the caller's
// now and none reads a clock. It is not safe for concurrent use: the
// daemon calls it under its lock, gridsim from its engine's goroutine.
type Core struct {
	spec   machine.Spec
	sched  scheduler.Scheduler
	est    bidding.Estimator // sched, converted once
	bidder bidding.Generator
	queued float64         // Σ Contract.Work of admitted jobs not yet gone
	holds  map[string]hold // lapsed ones too, until a sweep
	swept  int             // holds the last sweep left
	// events is the scheduler's log until Drain. It outlives the
	// scheduler: Reset hands the same storage to the next one.
	events []scheduler.Event

	// Dropped, if set, is called with the job ID of each hold that ends
	// without an admission: lapsed, or spent by a refused submit. The
	// daemon drops the staging area an upload made for it.
	Dropped func(jobID string)
}

// Reset makes c the core of a server with spec, sched and bidder (nil:
// the baseline), nothing queued, held or recorded; the hold table and
// the event log keep their room.
func (c *Core) Reset(spec machine.Spec, sched scheduler.Scheduler, bidder bidding.Generator) {
	if bidder == nil {
		bidder = bidding.Baseline{}
	}
	clear(c.holds)
	*c = Core{spec: spec, sched: sched, est: sched, bidder: bidder, holds: c.holds, events: c.events[:0], Dropped: c.Dropped}
	sched.Record(&c.events)
}

// State is what a bid for ct at now is priced from.
func (c *Core) State(now float64, ct *qos.Contract) bidding.ServerState {
	return bidding.StateFor(&c.spec, c.est, now, ct, c.queued)
}

// Bid prices st, or declines. It reads only what Reset set, so it may run
// outside the caller's lock, as a bidder that calls the Central Server
// must.
func (c *Core) Bid(now float64, ct *qos.Contract, st bidding.ServerState) (bidding.Bid, bool) {
	return bidding.Make(c.bidder, c.spec.Name, now, ct, st, BidValidity)
}

// Commit is phase two: it holds the server to b's price for user's job
// until BidValidity from now. The same user's commit again renews the
// hold; another user's live hold, or a bid past its ExpiresAt, refuses it.
func (c *Core) Commit(now float64, jobID, user string, b bidding.Bid) error {
	if err := c.mayHold(now, jobID, user, b); err != nil {
		return err
	}
	if c.holds == nil {
		c.holds = map[string]hold{}
	}
	c.holds[jobID] = hold{user: user, price: b.Price, expires: now + BidValidity}
	if len(c.holds) >= 2*c.swept {
		// Lapsed holds go in place: a Go map churned through keys it never
		// sees again levels off near twice its live keys (EXPERIMENTS
		// X25), which this doubling trigger already allows.
		for id, h := range c.holds {
			if now > h.expires {
				c.drop(id)
			}
		}
		c.swept = len(c.holds)
	}
	return nil
}

// mayHold refuses a commit of b after its ExpiresAt or on another's hold.
func (c *Core) mayHold(now float64, jobID, user string, b bidding.Bid) error {
	if b.ExpiresAt > 0 && now > b.ExpiresAt {
		return fmt.Errorf("server: bid for %s expired", jobID)
	}
	if _, err := c.HeldFor(now, jobID, user); err != nil && !errors.Is(err, ErrNoCommitment) {
		return err
	}
	return nil
}

// HeldFor returns the price of user's live hold on jobID, ErrNoCommitment
// if none holds it, or ErrNotOwner wrapped if another user's does. A
// lapsed hold is dropped here: it is absent whether or not a sweep ran.
func (c *Core) HeldFor(now float64, jobID, user string) (float64, error) {
	h, ok := c.holds[jobID]
	switch {
	case !ok:
		return 0, ErrNoCommitment
	case now > h.expires:
		c.drop(jobID)
		return 0, ErrNoCommitment
	case h.user != user:
		return 0, fmt.Errorf("server: job %s already committed: %w", jobID, ErrNotOwner)
	}
	return h.price, nil
}

// Submit admits j by spending its owner's live hold on its ID, and
// returns the hold's price. With no such hold nothing is spent; a submit
// the scheduler refuses spends it too.
func (c *Core) Submit(now float64, j *job.Job) (float64, error) {
	id := string(j.ID)
	price, err := c.HeldFor(now, id, j.Owner)
	if err != nil {
		return 0, fmt.Errorf("server: %s refuses job %s: %w", c.spec.Name, id, err)
	}
	if !c.Adopt(now, j) {
		c.drop(id)
		return 0, fmt.Errorf("server: %s refused job %s: %w", c.spec.Name, id, ErrRefused)
	}
	delete(c.holds, id)
	return price, nil
}

// Place is Commit and Submit at one instant, for a client with nothing
// to stage in between: it refuses what Commit refuses and admits j at b's
// price, but the hold it would write and spend at once is never written.
func (c *Core) Place(now float64, j *job.Job, b bidding.Bid) (float64, error) {
	if err := c.mayHold(now, string(j.ID), j.Owner, b); err != nil {
		return 0, err
	}
	if !c.Adopt(now, j) {
		return 0, fmt.Errorf("server: %s refused job %s: %w", c.spec.Name, j.ID, ErrRefused)
	}
	return b.Price, nil
}

// Adopt admits j, recovered or migrating in, with no hold to spend.
func (c *Core) Adopt(now float64, j *job.Job) bool {
	if !c.sched.Submit(now, j) {
		return false
	}
	c.queued += j.Contract.Work
	return true
}

// Advance moves the scheduler to now, taking the work of each job that
// finished out of the queue, and reports whether events wait for Drain.
func (c *Core) Advance(now float64) bool {
	n := len(c.events)
	c.sched.Advance(now)
	for _, e := range c.events[n:] {
		if e.Kind == scheduler.Finish {
			c.unqueue(e.Job)
		}
	}
	return len(c.events) > 0
}

// Drain appends to dst, in the order they happened, the scheduler's
// events since the last Drain — what Submit, Adopt, Advance and Kill did
// to running jobs' processors — and forgets them. It is the one way a
// finish leaves the core.
func (c *Core) Drain(dst []scheduler.Event) []scheduler.Event {
	dst = append(dst, c.events...)
	c.events = c.events[:0]
	return dst
}

// Kill terminates j and reports whether it was live.
func (c *Core) Kill(now float64, j *job.Job) bool {
	if !c.sched.Kill(now, j.ID) {
		return false
	}
	c.unqueue(j)
	return true
}

// Evict withdraws waiting job j, to move it to another server, and
// reports whether it was here.
func (c *Core) Evict(now float64, j *job.Job) bool {
	if !c.sched.Evict(now, j.ID) {
		return false
	}
	c.unqueue(j)
	return true
}

// unqueue takes j's whole contract out of the queued work, however far
// it ran: what a job adds at admission, it takes out when it leaves.
func (c *Core) unqueue(j *job.Job) {
	c.queued -= j.Contract.Work
	if c.queued < 0 {
		c.queued = 0
	}
}

// drop forgets a hold that ends without an admission.
func (c *Core) drop(jobID string) {
	delete(c.holds, jobID)
	if c.Dropped != nil {
		c.Dropped(jobID)
	}
}
