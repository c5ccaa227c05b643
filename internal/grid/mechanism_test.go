package grid

import (
	"math"
	"testing"
	"time"

	"faucets/internal/market"
	"faucets/internal/qos"
)

// Pricing rules over the real wire, on the standard three-cluster
// fixture (cost rates: lemieux 0.008 < turing 0.010 < tungsten 0.020,
// baseline bidders, Work=300 ⇒ bid = 300 × rate). Least-cost always
// awards lemieux; what it is PAID depends on the mechanism.
func TestMechanismPricingOverTheWire(t *testing.T) {
	g := threeClusterGrid(t, Options{})
	cl, err := g.Login("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}

	priceOf := func(c *qos.Contract) (string, float64) {
		t.Helper()
		p, err := cl.Place(c, market.LeastCost{})
		if err != nil {
			t.Fatal(err)
		}
		return p.Server.Spec.Name, p.Bid.Price
	}

	// First-price (the default): winner pays its own bid.
	srv, paid := priceOf(contract(300))
	if srv != "lemieux" || math.Abs(paid-2.4) > 1e-9 {
		t.Fatalf("first-price: %s paid %v, want lemieux paid 2.4", srv, paid)
	}

	// Vickrey via the per-contract override: same winner, but paid the
	// runner-up's (turing's) bid.
	c := contract(300)
	c.Mechanism = qos.MechanismVickrey
	srv, paid = priceOf(c)
	if srv != "lemieux" || math.Abs(paid-3.0) > 1e-9 {
		t.Fatalf("vickrey: %s paid %v, want lemieux paid turing's 3.0", srv, paid)
	}

	// Posted-price via the client-side default: no bid round trip, the
	// cheapest feasible post (idle fleet ⇒ list price) wins.
	cl.Mechanism = qos.MechanismPostedPrice
	srv, paid = priceOf(contract(300))
	if srv != "lemieux" || math.Abs(paid-2.4) > 1e-9 {
		t.Fatalf("posted-price: %s paid %v, want lemieux's list 2.4", srv, paid)
	}
}

// A grid default mechanism set on the Central Server reaches the
// client through the login handshake, and a posted-price placement
// settles end to end: the daemon records the clearing price the commit
// carried, and the server's revenue reflects it.
func TestGridDefaultMechanismSettlesEndToEnd(t *testing.T) {
	g := threeClusterGrid(t, Options{Mechanism: qos.MechanismPostedPrice})
	cl, err := g.Login("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	if cl.GridMechanism != qos.MechanismPostedPrice {
		t.Fatalf("login advertised mechanism %q, want posted-price", cl.GridMechanism)
	}

	p, err := cl.Place(contract(300), market.LeastCost{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(p); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.WaitFinished(p, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for g.Central.DB.HistoryLen() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("settlement never reached the central server")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if rev := g.Central.DB.Revenue(p.Server.Spec.Name); math.Abs(rev-p.Bid.Price) > 1e-9 {
		t.Fatalf("revenue %v != awarded posted price %v", rev, p.Bid.Price)
	}
}
