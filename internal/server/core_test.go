package server

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"faucets/internal/bidding"
	"faucets/internal/job"
	"faucets/internal/qos"
	"faucets/internal/scheduler"
)

// newCore is a 64-PE equipartition server bidding at the baseline, which
// records the hold IDs it drops in *dropped.
func newCore(dropped *[]string) *Core {
	c := &Core{Dropped: func(id string) { *dropped = append(*dropped, id) }}
	c.Reset(spec(64), scheduler.NewEquipartition(spec(64), scheduler.Config{}), bidding.Baseline{})
	return c
}

func contract(work float64) *qos.Contract {
	return &qos.Contract{App: "synth", MinPE: 2, MaxPE: 16, Work: work}
}

// TestHoldsLapse: a commit holds the core to its price for BidValidity
// and no longer. Inside the window a submit pays the committed price;
// after it the hold is absent with no sweep run — HeldFor and Submit find
// no commitment, the refused submit leaves no job, another user may
// commit the ID — and the lapsed hold is dropped once.
func TestHoldsLapse(t *testing.T) {
	var dropped []string
	c := newCore(&dropped)
	if err := c.Commit(0, "held", "alice", bidding.Bid{Price: 123.25}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.HeldFor(BidValidity/2, "held", "alice"); err != nil {
		t.Fatalf("inside the window: %v", err)
	}
	price, err := c.Submit(BidValidity, job.New("held", "alice", contract(1000), BidValidity))
	if err != nil || price != 123.25 {
		t.Fatalf("submit inside the window: price %v, %v; want the committed 123.25", price, err)
	}

	if err := c.Commit(0, "late", "alice", bidding.Bid{Price: 1}); err != nil {
		t.Fatal(err)
	}
	late := BidValidity + 1.0
	if _, err := c.HeldFor(late, "late", "alice"); !errors.Is(err, ErrNoCommitment) {
		t.Fatalf("HeldFor after the window: %v, want ErrNoCommitment", err)
	}
	if _, err := c.Submit(late, job.New("late", "alice", contract(1000), late)); !errors.Is(err, ErrNoCommitment) {
		t.Fatalf("submit after the window: %v, want ErrNoCommitment", err)
	}
	if q := c.queued; q != 1000 {
		t.Fatalf("queued work %v, want the held job's 1000 alone", q)
	}
	if !slices.Equal(dropped, []string{"late"}) {
		t.Fatalf("dropped %q, want the lapsed hold once", dropped)
	}

	if err := c.Commit(0, "taken", "alice", bidding.Bid{Price: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(late, "taken", "bob", bidding.Bid{Price: 2}); err != nil {
		t.Fatalf("another user's commit on a lapsed hold: %v", err)
	}
	if _, err := c.HeldFor(late, "taken", "bob"); err != nil {
		t.Fatalf("the new hold: %v", err)
	}
}

// TestSweepKeepsTheTableBounded: commits no submit follows leave a table
// of at most twice the commits of one validity window, and each lapsed
// hold is dropped once.
func TestSweepKeepsTheTableBounded(t *testing.T) {
	var dropped []string
	c := newCore(&dropped)
	// 10 000 commits and no submit, the clock moving a tenth of a window
	// every 100: a window spans 1 000 of them.
	const commits, step, perWindow = 10000, 100, 1000
	now, most := 0.0, 0
	for i := 0; i < commits; i++ {
		if i > 0 && i%step == 0 {
			now += BidValidity / 10
		}
		if err := c.Commit(now, fmt.Sprintf("idle-%05d", i), "alice", bidding.Bid{Price: 1}); err != nil {
			t.Fatal(err)
		}
		most = max(most, len(c.holds))
	}
	if bound := 2 * (perWindow + step); most > bound {
		t.Fatalf("%d commits left up to %d holds, want ≤ %d (twice a window's commits)", commits, most, bound)
	}
	slices.Sort(dropped)
	if n := len(dropped); n != len(slices.Compact(dropped)) || n != commits-len(c.holds) {
		t.Fatalf("%d holds dropped, %d distinct, %d left, of %d commits", n, len(slices.Compact(dropped)), len(c.holds), commits)
	}
}

// TestHoldBindsItsUser: a hold binds the core to the user who committed
// (§5.3; the contract-net tendering of Buyya et al.). Another user's
// commit and submit on the ID are refused and spend nothing; the
// committer's commit again renews the hold at the new price, and their
// submit pays it. A submit the scheduler refuses spends the hold.
func TestHoldBindsItsUser(t *testing.T) {
	var dropped []string
	c := newCore(&dropped)
	if err := c.Commit(0, "a", "alice", bidding.Bid{Price: 5}); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(0, "a", "mallory", bidding.Bid{Price: 1}); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("mallory's commit on alice's hold: %v, want ErrNotOwner", err)
	}
	if _, err := c.Submit(0, job.New("a", "mallory", contract(1000), 0)); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("mallory's submit of alice's hold: %v, want ErrNotOwner", err)
	}
	if err := c.Commit(1, "a", "alice", bidding.Bid{Price: 7}); err != nil {
		t.Fatalf("alice's retried commit: %v", err)
	}
	if price, err := c.Submit(1, job.New("a", "alice", contract(1000), 1)); err != nil || price != 7 {
		t.Fatalf("alice's submit after mallory's: price %v, %v; want 7", price, err)
	}
	if q := c.queued; q != 1000 {
		t.Fatalf("queued work %v, want alice's 1000", q)
	}

	// A 128-PE minimum never fits the 64-PE machine.
	if err := c.Commit(1, "huge", "alice", bidding.Bid{Price: 1}); err != nil {
		t.Fatal(err)
	}
	huge := &qos.Contract{App: "synth", MinPE: 128, MaxPE: 128, Work: 1}
	if _, err := c.Submit(1, job.New("huge", "alice", huge, 1)); err == nil || errors.Is(err, ErrNoCommitment) {
		t.Fatalf("submit of a job the machine cannot run: %v", err)
	}
	if _, err := c.HeldFor(1, "huge", "alice"); !errors.Is(err, ErrNoCommitment) {
		t.Fatalf("a refused submit left its hold: %v", err)
	}
	if !slices.Equal(dropped, []string{"huge"}) {
		t.Fatalf("dropped %q, want the refused submit's hold", dropped)
	}
}

// TestQueuedWorkLeavesWhole: the queued work counts each admitted job's
// whole contract until it finishes, is killed or is evicted, however far
// it has run.
func TestQueuedWorkLeavesWhole(t *testing.T) {
	var dropped []string
	c := newCore(&dropped)
	jobs := map[string]*job.Job{}
	for _, id := range []string{"done", "killed", "kept"} {
		jobs[id] = job.New(job.ID(id), "alice", contract(1600), 0)
		if err := c.Commit(0, id, "alice", bidding.Bid{}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Submit(0, jobs[id]); err != nil {
			t.Fatal(err)
		}
	}
	c.Advance(50) // 16 PEs each: half done
	if !c.Kill(50, jobs["killed"]) {
		t.Fatal("kill refused")
	}
	if q := c.queued; q != 3200 {
		t.Fatalf("after a kill halfway: %v queued, want the two live jobs' 3200", q)
	}
	c.Drain(nil)
	c.Advance(100)
	fin := 0
	for _, e := range c.Drain(nil) {
		if e.Kind == scheduler.Finish {
			fin++
		}
	}
	if fin != 2 {
		t.Fatalf("%d jobs finished at 100, want 2", fin)
	}
	if q := c.queued; q != 0 {
		t.Fatalf("after every job finished: %v queued, want 0", q)
	}
}

// TestPlaceWritesNoHold: Place admits a job at its bid's price and leaves
// the hold table as it found it, with nothing dropped; it refuses what
// Commit refuses — an expired bid, another user's live hold — and a
// scheduler's refusal as ErrRefused, admitting nothing for any of them.
func TestPlaceWritesNoHold(t *testing.T) {
	var dropped []string
	c := newCore(&dropped)
	price, err := c.Place(0, job.New("a", "alice", contract(1000), 0), bidding.Bid{Price: 7.5, ExpiresAt: BidValidity})
	if err != nil || price != 7.5 {
		t.Fatalf("place: price %v, %v; want the bid's 7.5", price, err)
	}
	if c.holds != nil || len(dropped) != 0 {
		t.Fatalf("place left holds %v and dropped %q, want neither", c.holds, dropped)
	}
	if _, err := c.Place(BidValidity+1, job.New("b", "alice", contract(1000), 0), bidding.Bid{ExpiresAt: BidValidity}); err == nil {
		t.Fatal("an expired bid placed")
	}
	if err := c.Commit(0, "c", "bob", bidding.Bid{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Place(1, job.New("c", "alice", contract(1000), 1), bidding.Bid{}); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("place on bob's hold: %v, want ErrNotOwner", err)
	}
	huge := &qos.Contract{App: "synth", MinPE: 128, MaxPE: 128, Work: 1}
	if _, err := c.Place(1, job.New("d", "alice", huge, 1), bidding.Bid{}); !errors.Is(err, ErrRefused) {
		t.Fatalf("place of a job the machine cannot fit: %v, want ErrRefused", err)
	}
	if q := c.queued; q != 1000 {
		t.Fatalf("queued work %v, want the placed job's 1000 alone", q)
	}
}
