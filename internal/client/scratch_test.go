package client

import (
	"fmt"
	"net"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"faucets/internal/accounting"
	"faucets/internal/central"
	"faucets/internal/daemon"
	"faucets/internal/machine"
	"faucets/internal/market"
	"faucets/internal/protocol"
	"faucets/internal/qos"
	"faucets/internal/scheduler"
)

// Place reads the directory into a recycled scratch and StartBid takes
// its exchange record from a pool. These tests hold that what a caller
// is handed never points into either.

// TestPlacementOutlivesTheScratch: a Placement still reads the same
// Server — name, address, applications — after a hundred further
// concurrent Places have decoded a directory that changed in between
// into the scratch its listing came from.
func TestPlacementOutlivesTheScratch(t *testing.T) {
	fs, cl, fdAddr := testbed(t)
	c := &qos.Contract{App: "synth", MinPE: 1, MaxPE: 8, Work: 50}
	entry := fs.Servers(nil)[0]
	entry.Apps = []string{"synth", "zzz-old"}
	if err := fs.RegisterDaemon(entry); err != nil {
		t.Fatal(err)
	}
	first, err := cl.Place(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := first.Server
	want.Apps = slices.Clone(want.Apps)
	if !reflect.DeepEqual(want.Apps, entry.Apps) {
		t.Fatalf("placed on %+v, want the re-registered entry", want)
	}

	// The same server with as many applications, another one first: a
	// decode into the old listing rewrites Apps[0] where it lies.
	changed := entry
	changed.Apps = []string{"aaa-new", "synth"}
	changed.Home = "moved"
	if err := fs.RegisterDaemon(changed); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				p, err := cl.Place(c, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if p.Server.Addr != fdAddr || !reflect.DeepEqual(p.Server.Apps, changed.Apps) {
					t.Errorf("later placement reads %+v, want the re-registered entry", p.Server)
					return
				}
			}
		}()
	}
	wg.Wait()
	if !reflect.DeepEqual(first.Server, want) {
		t.Fatalf("the first placement's server changed under it:\n got %+v\nwant %+v", first.Server, want)
	}
}

// TestForfeitedBidCompletesIntoItsOwnRecord: a daemon that answers after
// the per-bid deadline has forfeited, and the auction has returned, by
// the time its reply arrives. The reply completes the exchange record
// that request took — which nothing else has been handed meanwhile — and
// is dropped: the rounds run while it was in flight, and after it
// landed, see exactly the responsive servers' bids.
func TestForfeitedBidCompletesIntoItsOwnRecord(t *testing.T) {
	cl := &Client{User: "alice", Token: "tok", RPCTimeout: 2 * time.Second}
	defer cl.Close()
	port := func(name string, price float64, delay time.Duration) market.ServerPort {
		return &fdPort{c: cl, info: &protocol.ServerInfo{
			Spec: machine.Spec{Name: name, NumPE: 4, MemPerPE: 1, Speed: 1},
			Addr: startBidStub(t, name, price, delay, nil),
		}}
	}
	fast := []market.ServerPort{port("a", 3, 0), port("b", 2, 0), port("c", 1, 0)}
	all := append(slices.Clone(fast), port("late", 0.5, 150*time.Millisecond))
	contract := &qos.Contract{App: "synth", MinPE: 1, MaxPE: 4, Work: 100}
	want := market.SolicitWith(0, fast, contract, market.LeastCost{}, market.SolicitOpts{Concurrency: 1})
	if len(want) != len(fast) {
		t.Fatalf("serial walk got %d bids, want %d", len(want), len(fast))
	}

	opts := market.SolicitOpts{Timeout: 40 * time.Millisecond}
	if got := market.SolicitWith(0, all, contract, market.LeastCost{}, opts); !reflect.DeepEqual(got, want) {
		t.Fatalf("round with a late bidder:\n got %+v\nwant %+v", got, want)
	}
	// The late reply is still on its way: these rounds recycle records
	// around it, and the last ones run after it has landed.
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
		if got := market.SolicitWith(0, fast, contract, market.LeastCost{}, opts); !reflect.DeepEqual(got, want) {
			t.Fatalf("round beside a forfeited bid in flight:\n got %+v\nwant %+v", got, want)
		}
	}
}

// BenchmarkPlace is one placement against a loopback fleet, Central
// Server and daemons in this process: directory read, sixteen-way
// request-for-bids, commit. B/op is the whole process's, so it is the
// per-layer reading of the bench's auction-wide alloc_kb_per_job.
func BenchmarkPlace(b *testing.B) {
	const fleet = 16
	fs := central.New(accounting.Dollars)
	if err := fs.Auth.AddUser("alice", "pw", ""); err != nil {
		b.Fatal(err)
	}
	fsl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go fs.Serve(fsl)
	b.Cleanup(fs.Close)
	for i := 0; i < fleet; i++ {
		spec := machine.Spec{Name: fmt.Sprintf("box-%02d", i), NumPE: 64, MemPerPE: 2048, CPUType: "x86", Speed: 1, CostRate: 0.01 + float64(i)/1000}
		d, err := daemon.New(daemon.Config{
			Info:        protocol.ServerInfo{Spec: spec, Apps: []string{"synth"}},
			Scheduler:   scheduler.NewEquipartition(spec, scheduler.Config{}),
			CentralAddr: fsl.Addr().String(),
			TimeScale:   1000,
		})
		if err != nil {
			b.Fatal(err)
		}
		dl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		if err := d.Start(dl); err != nil {
			b.Fatal(err)
		}
		b.Cleanup(d.Close)
	}
	cl, err := Login(fsl.Addr().String(), "alice", "pw")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(cl.Close)
	c := &qos.Contract{App: "synth", MinPE: 1, MaxPE: 8, Work: 50}
	b.Run(fmt.Sprintf("fleet_%d", fleet), func(b *testing.B) {
		if _, err := cl.Place(c, nil); err != nil { // dial the fleet
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cl.Place(c, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}
