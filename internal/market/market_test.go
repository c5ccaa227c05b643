package market

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"faucets/internal/bidding"
	"faucets/internal/qos"
	"faucets/internal/sim"
)

// fakeServer is a scripted ServerPort.
type fakeServer struct {
	name      string
	bid       bidding.Bid
	declines  bool // declines to bid
	capacity  int  // commits accepted before refusing
	committed []string
}

func (f *fakeServer) ServerName() string { return f.name }

func (f *fakeServer) RequestBid(now float64, c *qos.Contract) (bidding.Bid, bool) {
	if f.declines {
		return bidding.Bid{}, false
	}
	b := f.bid
	b.Server = f.name
	return b, true
}

func (f *fakeServer) Commit(now float64, jobID string, b bidding.Bid) error {
	if len(f.committed) >= f.capacity {
		return errors.New("full")
	}
	f.committed = append(f.committed, jobID)
	return nil
}

func contract() *qos.Contract {
	return &qos.Contract{App: "x", MinPE: 1, MaxPE: 4, Work: 100}
}

func srv(name string, price, done float64) *fakeServer {
	return &fakeServer{name: name, capacity: 100,
		bid: bidding.Bid{Price: price, EstCompletion: done, ExpiresAt: 1e18}}
}

func ports(ss ...*fakeServer) []ServerPort {
	out := make([]ServerPort, len(ss))
	for i, s := range ss {
		out[i] = s
	}
	return out
}

// solicit is the request-for-bids round under default options.
func solicit(servers []ServerPort, crit Criterion) []bidding.Bid {
	return SolicitWith(0, servers, contract(), crit, SolicitOpts{})
}

// award is the full selection the tests drive: solicit under the
// mechanism with default options (least cost), then the priced commit
// walk — two-phase unless singlePhase is set.
func award(now float64, servers []ServerPort, jobID string, m Mechanism, singlePhase bool) (AwardResult, error) {
	bids := m.Solicit(nil, now, servers, contract(), LeastCost{}, SolicitOpts{})
	return CommitPriced(now, servers, bids, jobID, singlePhase, m)
}

func TestSolicitSortsByCriterion(t *testing.T) {
	servers := ports(srv("a", 30, 10), srv("b", 10, 30), srv("c", 20, 20))
	bids := solicit(servers, LeastCost{})
	if bids[0].Server != "b" || bids[2].Server != "a" {
		t.Fatalf("least-cost order wrong: %v", bids)
	}
	bids = solicit(servers, EarliestCompletion{})
	if bids[0].Server != "a" || bids[2].Server != "b" {
		t.Fatalf("earliest-completion order wrong: %v", bids)
	}
}

func TestSolicitSkipsDecliners(t *testing.T) {
	d := srv("d", 1, 1)
	d.declines = true
	bids := solicit(ports(srv("a", 5, 5), d), LeastCost{})
	if len(bids) != 1 || bids[0].Server != "a" {
		t.Fatalf("bids=%v", bids)
	}
}

func TestCriterionTieBreaks(t *testing.T) {
	a := bidding.Bid{Server: "a", Price: 10, EstCompletion: 5}
	b := bidding.Bid{Server: "b", Price: 10, EstCompletion: 9}
	if (LeastCost{}).Compare(&a, &b) >= 0 {
		t.Fatal("least-cost must tie-break by completion")
	}
	c := bidding.Bid{Server: "c", Price: 3, EstCompletion: 5}
	if (EarliestCompletion{}).Compare(&c, &a) >= 0 {
		t.Fatal("earliest-completion must tie-break by price")
	}
}

func TestWeightedCriterion(t *testing.T) {
	w := Weighted{PriceWeight: 1, TimeWeight: 0}
	cheapSlow := bidding.Bid{Price: 1, EstCompletion: 1000}
	fastDear := bidding.Bid{Price: 100, EstCompletion: 1}
	if w.Compare(&cheapSlow, &fastDear) >= 0 {
		t.Fatal("pure price weighting failed")
	}
	w = Weighted{PriceWeight: 0, TimeWeight: 1}
	if w.Compare(&fastDear, &cheapSlow) >= 0 {
		t.Fatal("pure time weighting failed")
	}
	if w.Name() == "" || (LeastCost{}).Name() == "" || (EarliestCompletion{}).Name() == "" {
		t.Fatal("criteria must have names")
	}
}

func TestAwardPicksBestCommitter(t *testing.T) {
	a, b := srv("a", 10, 10), srv("b", 20, 20)
	res, err := award(0, ports(a, b), "job1", FirstPrice{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bid.Server != "a" || res.Attempts != 1 {
		t.Fatalf("res=%+v", res)
	}
	if len(a.committed) != 1 || a.committed[0] != "job1" {
		t.Fatalf("commit not recorded: %v", a.committed)
	}
}

func TestAwardFallsBackOnConflict(t *testing.T) {
	full := srv("cheap", 1, 1)
	full.capacity = 0 // refuses all commits
	backup := srv("backup", 50, 50)
	res, err := award(0, ports(full, backup), "j", FirstPrice{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bid.Server != "backup" {
		t.Fatalf("fallback missed: %+v", res)
	}
	if res.Attempts != 2 || len(res.Declined) != 1 || res.Declined[0] != "cheap" {
		t.Fatalf("contention stats wrong: %+v", res)
	}
}

func TestAwardSkipsExpiredBids(t *testing.T) {
	stale := srv("stale", 1, 1)
	stale.bid.ExpiresAt = 5
	fresh := srv("fresh", 50, 50)
	res, err := award(10, ports(stale, fresh), "j", FirstPrice{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bid.Server != "fresh" {
		t.Fatalf("expired bid used: %+v", res)
	}
	if len(stale.committed) != 0 {
		t.Fatal("committed to an expired bid")
	}
}

func TestAwardNoBids(t *testing.T) {
	d := srv("d", 1, 1)
	d.declines = true
	if _, err := award(0, ports(d), "j", FirstPrice{}, false); !errors.Is(err, ErrNoBids) {
		t.Fatalf("err=%v", err)
	}
	if _, err := award(0, nil, "j", FirstPrice{}, false); !errors.Is(err, ErrNoBids) {
		t.Fatalf("err=%v", err)
	}
}

func TestAwardAllRefuse(t *testing.T) {
	a := srv("a", 1, 1)
	a.capacity = 0
	_, err := award(0, ports(a), "j", FirstPrice{}, false)
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("err=%v", err)
	}
}

func TestAwardAllExpired(t *testing.T) {
	a := srv("a", 1, 1)
	a.bid.ExpiresAt = 1
	_, err := award(100, ports(a), "j", FirstPrice{}, false)
	if !errors.Is(err, ErrExpired) {
		t.Fatalf("err=%v", err)
	}
}

func TestSinglePhaseFailsOnConflict(t *testing.T) {
	full := srv("cheap", 1, 1)
	full.capacity = 0
	backup := srv("backup", 50, 50)
	_, err := award(0, ports(full, backup), "j", FirstPrice{}, true)
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("single-phase must not fall back: %v", err)
	}
	if len(backup.committed) != 0 {
		t.Fatal("single-phase touched the backup server")
	}
}

func TestSinglePhaseSucceedsWithoutContention(t *testing.T) {
	a := srv("a", 5, 5)
	res, err := award(0, ports(a), "j", FirstPrice{}, true)
	if err != nil || res.Bid.Server != "a" {
		t.Fatalf("res=%+v err=%v", res, err)
	}
}

// Under contention, two-phase places strictly more jobs than
// single-phase on the same server pool (capacity 1 each).
func TestTwoPhaseBeatsSinglePhaseUnderContention(t *testing.T) {
	mkPool := func() []ServerPort {
		var ss []ServerPort
		for i := 0; i < 4; i++ {
			s := srv(fmt.Sprintf("s%d", i), float64(i+1), float64(i+1))
			s.capacity = 1
			ss = append(ss, s)
		}
		return ss
	}
	pool2 := mkPool()
	placed2 := 0
	for i := 0; i < 8; i++ {
		if _, err := award(0, pool2, fmt.Sprintf("j%d", i), FirstPrice{}, false); err == nil {
			placed2++
		}
	}
	pool1 := mkPool()
	placed1 := 0
	for i := 0; i < 8; i++ {
		if _, err := award(0, pool1, fmt.Sprintf("j%d", i), FirstPrice{}, true); err == nil {
			placed1++
		}
	}
	if placed2 != 4 {
		t.Fatalf("two-phase placed %d, want 4 (all capacity used)", placed2)
	}
	if placed1 != 1 {
		t.Fatalf("single-phase placed %d, want 1 (everyone chased the same best bid)", placed1)
	}
}

// Property: Solicit returns bids sorted best-first under the criterion,
// whatever the bid set.
func TestSolicitSortedProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		n := 1 + rng.Intn(12)
		var servers []ServerPort
		for i := 0; i < n; i++ {
			servers = append(servers, srv(fmt.Sprintf("s%d", i), rng.Range(1, 100), rng.Range(1, 1000)))
		}
		for _, crit := range []Criterion{LeastCost{}, EarliestCompletion{}, Weighted{PriceWeight: 1, TimeWeight: 0.5}} {
			bids := solicit(servers, crit)
			if len(bids) != n {
				return false
			}
			for i := 1; i < len(bids); i++ {
				if crit.Compare(&bids[i], &bids[i-1]) < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: a two-phase award commits to at most one server.
func TestAwardSingleCommitProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		n := 1 + rng.Intn(6)
		var servers []ServerPort
		var raw []*fakeServer
		for i := 0; i < n; i++ {
			s := srv(fmt.Sprintf("s%d", i), rng.Range(1, 100), rng.Range(1, 100))
			s.capacity = rng.Intn(2) // 0 or 1
			servers = append(servers, s)
			raw = append(raw, s)
		}
		_, _ = award(0, servers, "j", FirstPrice{}, false)
		total := 0
		for _, s := range raw {
			total += len(s.committed)
		}
		return total <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
