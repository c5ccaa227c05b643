package market

import (
	"errors"
	"testing"

	"faucets/internal/bidding"
	"faucets/internal/qos"
)

// postServer extends the scripted fakeServer with a posted commodity
// price and a record of the price each accepted commit actually
// carried — the number a mechanism's clearing rule controls.
type postServer struct {
	fakeServer
	post    bidding.Bid
	canPost bool
	paid    []float64
}

func (p *postServer) Post(now float64, c *qos.Contract) (bidding.Bid, bool) {
	b := p.post
	b.Server = p.name
	return b, p.canPost
}

func (p *postServer) Commit(now float64, jobID string, b bidding.Bid) error {
	if err := p.fakeServer.Commit(now, jobID, b); err != nil {
		return err
	}
	p.paid = append(p.paid, b.Price)
	return nil
}

func psrv(name string, bid, post float64) *postServer {
	s := &postServer{canPost: true}
	s.name = name
	s.capacity = 100
	s.bid = bidding.Bid{Price: bid, EstCompletion: bid, ExpiresAt: 1e18}
	s.post = bidding.Bid{Price: post, EstCompletion: post}
	return s
}

// fixture is the fixed three-server market the pricing-rule table runs
// against: auction bids 10/20/30, posted prices 12/18/25, least-cost
// ranking, so "a" wins under every mechanism.
func fixture() (a, b, c *postServer, ss []ServerPort) {
	a, b, c = psrv("a", 10, 12), psrv("b", 20, 18), psrv("c", 30, 25)
	return a, b, c, []ServerPort{a, b, c}
}

// The pricing rules, one row per mechanism: first-price pays the
// winner's own bid, vickrey pays the runner-up's bid, posted-price pays
// the post itself.
func TestPricingRules(t *testing.T) {
	cases := []struct {
		mech   Mechanism
		winner string
		paid   float64
	}{
		{FirstPrice{}, "a", 10},
		{Vickrey{}, "a", 20},
		{PostedPrice{}, "a", 12},
	}
	for _, tc := range cases {
		t.Run(tc.mech.Name(), func(t *testing.T) {
			a, _, _, ss := fixture()
			res, err := award(0, ss, "j", tc.mech, false)
			if err != nil {
				t.Fatal(err)
			}
			if res.Bid.Server != tc.winner {
				t.Fatalf("winner=%s want %s", res.Bid.Server, tc.winner)
			}
			if res.Bid.Price != tc.paid {
				t.Fatalf("awarded price=%v want %v", res.Bid.Price, tc.paid)
			}
			if len(a.paid) != 1 || a.paid[0] != tc.paid {
				t.Fatalf("server saw commit prices %v, want [%v]", a.paid, tc.paid)
			}
		})
	}
}

func TestVickreyLoneOfferPaysOwnBid(t *testing.T) {
	a := psrv("a", 10, 12)
	res, err := award(0, []ServerPort{a}, "j", Vickrey{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bid.Price != 10 {
		t.Fatalf("lone vickrey winner paid %v, want its own bid 10", res.Bid.Price)
	}
}

// When the best vickrey offer refuses the commit, the walk falls to the
// runner-up — which must then be priced against the THIRD offer, not
// against itself.
func TestVickreyFallbackPricesAgainstNextOffer(t *testing.T) {
	a, b, _, ss := fixture()
	a.capacity = 0
	res, err := award(0, ss, "j", Vickrey{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bid.Server != "b" || res.Bid.Price != 30 {
		t.Fatalf("res=%+v, want b paid c's 30", res.Bid)
	}
	if len(b.paid) != 1 || b.paid[0] != 30 {
		t.Fatalf("b saw %v, want [30]", b.paid)
	}
}

// Legacy ports without a posted price simply have no offer in the
// commodity market, and a breaker gate keeps a sick server's post out.
func TestPostedPriceSkipsNonPostsAndGated(t *testing.T) {
	legacy := srv("legacy", 1, 1) // plain fakeServer: no Post method
	noPost := psrv("nopost", 2, 2)
	noPost.canPost = false
	a := psrv("a", 10, 12)
	b := psrv("b", 20, 18)
	gate := func(s ServerPort) bool { return s.ServerName() != "a" }
	bids := (PostedPrice{}).Solicit(nil, 0, []ServerPort{legacy, noPost, a, b},
		contract(), LeastCost{}, SolicitOpts{Gate: gate})
	if len(bids) != 1 || bids[0].Server != "b" || bids[0].Price != 18 {
		t.Fatalf("bids=%v, want only b's 18", bids)
	}
}

func TestForName(t *testing.T) {
	for name, want := range map[string]string{
		"":                       qos.MechanismFirstPrice,
		qos.MechanismFirstPrice:  qos.MechanismFirstPrice,
		qos.MechanismVickrey:     qos.MechanismVickrey,
		qos.MechanismPostedPrice: qos.MechanismPostedPrice,
	} {
		m, err := ForName(name)
		if err != nil || m.Name() != want {
			t.Fatalf("ForName(%q) = %v, %v", name, m, err)
		}
	}
	if _, err := ForName("dutch"); !errors.Is(err, qos.ErrMechanism) {
		t.Fatalf("unknown mechanism error = %v, want ErrMechanism", err)
	}
}
