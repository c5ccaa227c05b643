package client

import (
	"errors"
	"math"
	"net"
	"testing"
	"time"

	"faucets/internal/appspector"
	"faucets/internal/bidding"
	"faucets/internal/health"
	"faucets/internal/market"
	"faucets/internal/protocol"
	"faucets/internal/qos"
	"faucets/internal/telemetry"
)

func TestMechanismForPrecedence(t *testing.T) {
	cl := &Client{}
	cases := []struct {
		contract, client, grid, want string
	}{
		{"", "", "", qos.MechanismFirstPrice},
		{"", "", qos.MechanismVickrey, qos.MechanismVickrey},
		{"", qos.MechanismPostedPrice, qos.MechanismVickrey, qos.MechanismPostedPrice},
		{qos.MechanismFirstPrice, qos.MechanismPostedPrice, qos.MechanismVickrey, qos.MechanismFirstPrice},
	}
	for _, tc := range cases {
		cl.Mechanism, cl.GridMechanism = tc.client, tc.grid
		m, err := cl.mechanismFor(&qos.Contract{Mechanism: tc.contract})
		if err != nil || m.Name() != tc.want {
			t.Fatalf("contract=%q client=%q grid=%q -> %v, %v (want %s)",
				tc.contract, tc.client, tc.grid, m, err, tc.want)
		}
	}
	cl.Mechanism = "dutch"
	if _, err := cl.mechanismFor(&qos.Contract{}); !errors.Is(err, qos.ErrMechanism) {
		t.Fatalf("err=%v, want ErrMechanism", err)
	}
}

// Place under each mechanism against the single-daemon testbed: box
// has cost rate 0.01, so a Work=100 contract bids 1.0 everywhere, and
// an idle fleet posts list price. With one server even vickrey pays
// the lone bid.
func TestPlaceUnderEachMechanism(t *testing.T) {
	_, cl, _ := testbed(t)
	for _, mech := range []string{"", qos.MechanismFirstPrice, qos.MechanismVickrey, qos.MechanismPostedPrice} {
		cl.Mechanism = mech
		c := &qos.Contract{App: "synth", MinPE: 1, MaxPE: 8, Work: 100}
		p, err := cl.Place(c, market.LeastCost{})
		if err != nil {
			t.Fatalf("mechanism %q: %v", mech, err)
		}
		if p.Server.Spec.Name != "box" || math.Abs(p.Bid.Price-1.0) > 1e-9 {
			t.Fatalf("mechanism %q placed %+v, want box at 1.0", mech, p.Bid)
		}
	}
}

func TestPlaceRejectsUnknownMechanism(t *testing.T) {
	_, cl, _ := testbed(t)
	c := &qos.Contract{App: "synth", MinPE: 1, MaxPE: 8, Work: 100, Mechanism: "dutch"}
	if _, err := cl.Place(c, nil); err == nil {
		t.Fatal("unknown mechanism placed")
	}
}

// The directory post is a pure local computation over the listing:
// feasibility screens size, memory, and exported applications, and the
// posted price follows the published 1+utilization schedule.
func TestFdPortPost(t *testing.T) {
	cl := &Client{}
	port := &fdPort{c: cl, info: &protocol.ServerInfo{Apps: []string{"synth"}}}
	port.info.Spec.Name = "box"
	port.info.Spec.NumPE = 32
	port.info.Spec.MemPerPE = 2048
	port.info.Spec.Speed = 1
	port.info.Spec.CostRate = 0.01
	port.info.UsedPE = 16 // half busy per the published weather

	c := &qos.Contract{App: "synth", MinPE: 1, MaxPE: 8, Work: 100}
	b, ok := port.Post(0, c)
	if !ok || b.Server != "box" || b.Multiplier != 1.5 {
		t.Fatalf("post=%+v ok=%v", b, ok)
	}
	if want := bidding.Price(c, bidding.ServerState{Speed: 1, CostRate: 0.01}, 1.5); math.Abs(b.Price-want) > 1e-9 {
		t.Fatalf("price=%v want %v", b.Price, want)
	}

	// Too small, wrong app, too little memory: no post.
	for name, bad := range map[string]*qos.Contract{
		"size":   {App: "synth", MinPE: 64, MaxPE: 64, Work: 100},
		"app":    {App: "cfd", MinPE: 1, MaxPE: 8, Work: 100},
		"memory": {App: "synth", MinPE: 1, MaxPE: 8, Work: 100, MemPerPE: 1 << 20},
	} {
		if _, ok := port.Post(0, bad); ok {
			t.Fatalf("%s: infeasible contract got a post", name)
		}
	}
}

// Posted-price solicitation honours the same breaker gate as auctions:
// an OPEN breaker keeps the daemon's post out of the commodity market
// and counts the skip.
func TestPostedPriceRespectsBreakerGate(t *testing.T) {
	_, cl, fdAddr := testbed(t)
	cl.Metrics = telemetry.NewRegistry()
	cl.Breakers = health.NewSet(health.Options{Threshold: 1, Cooldown: time.Hour})
	cl.Breakers.Record(fdAddr, 0, errors.New("boom")) // trips the only daemon's breaker
	cl.Mechanism = qos.MechanismPostedPrice
	c := &qos.Contract{App: "synth", MinPE: 1, MaxPE: 8, Work: 100}
	if _, err := cl.Place(c, nil); !errors.Is(err, market.ErrNoBids) {
		t.Fatalf("err=%v, want ErrNoBids with every post gated", err)
	}
	if cl.breakerSkips().Value() == 0 {
		t.Fatal("gated post not counted as a breaker skip")
	}
}

// Watch streams buffered telemetry from an AppSpector and honours both
// the consumer's stop signal and the end-of-stream frame.
func TestWatchStreamsTelemetry(t *testing.T) {
	fs, cl, _ := testbed(t)
	as := appspector.NewServer(func(token string) (string, error) {
		return fs.Auth.Verify(token)
	})
	asl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go as.Serve(asl)
	t.Cleanup(as.Close)
	cl.AppSpectorAddr = asl.Addr().String()

	as.Register("job-w", "alice", "box", "synth")
	for i := 0; i < 3; i++ {
		if err := as.Ingest(protocol.Telemetry{JobID: "job-w", State: "running", Done: float64(i) / 3}); err != nil {
			t.Fatal(err)
		}
	}
	if err := as.Ingest(protocol.Telemetry{JobID: "job-w", State: "finished", Done: 1}); err != nil {
		t.Fatal(err)
	}

	var got []protocol.Telemetry
	err = cl.Watch("job-w", true, func(tl protocol.Telemetry) bool {
		got = append(got, tl)
		return tl.State != "finished"
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got[3].State != "finished" {
		t.Fatalf("telemetry=%+v", got)
	}

	// Bad token: the subscribe handshake is refused.
	badCl := &Client{AppSpectorAddr: cl.AppSpectorAddr, Token: "nope"}
	if err := badCl.Watch("job-w", true, func(protocol.Telemetry) bool { return true }); err == nil {
		t.Fatal("watch with a bad token succeeded")
	}
}
