package client

import (
	"net"
	"reflect"
	"testing"
	"time"

	"faucets/internal/bidding"
	"faucets/internal/chaos"
	"faucets/internal/machine"
	"faucets/internal/market"
	"faucets/internal/protocol"
	"faucets/internal/qos"
)

// startBidStub runs a wire-level bid server answering TypeBidReq with a
// scripted price after an optional per-request delay. The listener is
// wrapped with the chaos injector when one is given, so every frame of
// the auction crosses the fault layer.
func startBidStub(t *testing.T, name string, price float64, delay time.Duration, inj *chaos.Injector) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	if inj != nil {
		l = inj.WrapListener(l)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				rc := protocol.NewReplyConn(conn)
				for {
					f, err := protocol.ReadFrame(conn)
					if err != nil {
						return
					}
					rc.SetID(f.ID)
					if f.Type != protocol.TypeBidReq {
						_ = protocol.WriteError(rc, "stub: "+f.Type)
						continue
					}
					if delay > 0 {
						time.Sleep(delay)
					}
					_ = protocol.WriteFrame(rc, protocol.TypeBidOK, protocol.BidOK{
						Bid: bidding.Bid{Server: name, Price: price, EstCompletion: 10},
					})
				}
			}()
		}
	}()
	return addr
}

// TestParallelSolicitMatchesSerialUnderChaos: the concurrent bid
// fan-out, run over the wire with the chaos delay injector in the path,
// must produce exactly the ranking the serial walk produces — with the
// one hung bidder excluded by the per-bid deadline rather than stalling
// the auction. Run under -race, this also exercises the collector and the
// pool's completion path for data races.
func TestParallelSolicitMatchesSerialUnderChaos(t *testing.T) {
	// Delay-only injector: every operation may sleep a little, so reply
	// order is scrambled, but no frames are lost.
	inj := chaos.New(chaos.Config{Seed: 42, DelayProb: 0.5, MaxDelay: 5 * time.Millisecond})

	const fast = 12
	cl := &Client{User: "alice", Token: "tok", RPCTimeout: 2 * time.Second}
	defer cl.Close()
	var ports []market.ServerPort
	for i := 0; i < fast; i++ {
		name := string(rune('a'+i%3)) + "-srv-" + string(rune('0'+i/3))
		// Duplicate prices across servers force criterion ties, so the
		// ranking leans on the server-name tie-break.
		addr := startBidStub(t, name, float64(10+i%4), 0, inj)
		ports = append(ports, &fdPort{c: cl, info: &protocol.ServerInfo{
			Spec: machine.Spec{Name: name, NumPE: 4, MemPerPE: 1, Speed: 1}, Addr: addr,
		}})
	}
	// One hung daemon: answers far past the per-bid deadline.
	slowAddr := startBidStub(t, "zz-slow", 1, 2*time.Second, nil)
	slowPort := &fdPort{c: cl, info: &protocol.ServerInfo{
		Spec: machine.Spec{Name: "zz-slow", NumPE: 4, MemPerPE: 1, Speed: 1}, Addr: slowAddr,
	}}

	contract := &qos.Contract{App: "synth", MinPE: 1, MaxPE: 4, Work: 100}
	crit := market.LeastCost{}

	// Reference: the serial walk over the responsive servers only.
	want := market.SolicitWith(0, ports, contract, crit, market.SolicitOpts{Concurrency: 1})
	if len(want) != fast {
		t.Fatalf("serial walk got %d bids, want %d", len(want), fast)
	}

	start := time.Now()
	got := market.SolicitWith(0, append(append([]market.ServerPort{}, ports...), slowPort),
		contract, crit, market.SolicitOpts{Concurrency: 8, Timeout: 300 * time.Millisecond})
	elapsed := time.Since(start)

	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parallel ranking diverged from serial:\n got %+v\nwant %+v", got, want)
	}
	// The slow bidder forfeits; it must not have stalled the fan-out for
	// anywhere near its 2s answer time.
	if elapsed > 1500*time.Millisecond {
		t.Fatalf("fan-out took %v — the hung bidder stalled the auction", elapsed)
	}
}
