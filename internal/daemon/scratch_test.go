package daemon

import (
	"fmt"
	"io"
	"math"
	"net"
	"testing"
	"time"

	"faucets/internal/accounting"
	"faucets/internal/bidding"
	"faucets/internal/central"
	"faucets/internal/protocol"
	"faucets/internal/qos"
	"faucets/internal/scheduler"
)

// The bid_req arm decodes into a recycled scratch and replies from it.
// These tests hold that nothing of one request answers another and that
// nothing the daemon keeps points into the scratch.

// phased is a contract with a phase list, so a recycled contract has a
// slice to carry over.
func phased(app string, work float64, minPE, maxPE, phases int) *qos.Contract {
	c := &qos.Contract{App: app, MinPE: minPE, MaxPE: maxPE, Work: work}
	for i := 0; i < phases; i++ {
		c.Phases = append(c.Phases, qos.Phase{Name: fmt.Sprint("p", i), Work: work / float64(phases), MinPE: minPE, MaxPE: maxPE})
	}
	return c
}

// sameOffer compares two bids made a moment apart on a clock that barely
// moves.
func sameOffer(a, b bidding.Bid) bool {
	return a.Server == b.Server && a.Price == b.Price && a.Multiplier == b.Multiplier &&
		math.Abs(a.EstCompletion-b.EstCompletion) < 1e-3
}

// TestBidScratchNeverAnswersForAnotherRequest: two users with different
// tokens, applications and contract shapes alternate on one connection,
// with forged credentials in between. Each honest request gets the bid
// the daemon makes for that contract alone, and every forgery is refused
// every time — the verify cache is keyed by what this request carries,
// never by what the scratch held before.
func TestBidScratchNeverAnswersForAnotherRequest(t *testing.T) {
	fs := central.New(accounting.Dollars)
	_ = fs.Auth.AddUser("alice", "pw", "")
	_ = fs.Auth.AddUser("bob", "pw", "")
	fsl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go fs.Serve(fsl)
	t.Cleanup(fs.Close)
	alice, _ := fs.Auth.Login("alice", "pw")
	bob, _ := fs.Auth.Login("bob", "pw")

	d, addr := startDaemon(t, Config{
		CentralAddr: fsl.Addr().String(),
		Info:        protocol.ServerInfo{Spec: spec("turing", 64), Apps: []string{"synth", "namd"}},
		TimeScale:   1e-6, // the daemon's clock stands still, so bids made apart compare
	})
	conn := dial(t, addr)
	requests := []struct {
		user, token string
		c           *qos.Contract
		honest      bool
	}{
		{"alice", alice, phased("synth", 400, 2, 16, 2), true},
		{"bob", bob, phased("namd", 9000, 8, 64, 0), true},
		{"alice", "bogus", phased("synth", 400, 2, 16, 2), false},
		{"alice", bob, phased("synth", 400, 2, 16, 3), false}, // bob's token does not make him alice
		{"bob", bob, phased("synth", 50, 1, 4, 3), true},
		{"bob", alice, phased("namd", 9000, 8, 64, 0), false},
		{"alice", alice, phased("namd", 700, 4, 32, 1), true},
	}
	for round := 0; round < 5; round++ {
		for i, r := range requests {
			var got protocol.BidOK
			err := protocol.Call(conn, protocol.TypeBidReq, protocol.BidReq{User: r.user, Token: r.token, Contract: r.c}, protocol.TypeBidOK, &got)
			if !r.honest {
				if err == nil {
					t.Fatalf("round %d request %d: %s with a token that is not theirs got a bid", round, i, r.user)
				}
				continue
			}
			if err != nil {
				t.Fatalf("round %d request %d: %v", round, i, err)
			}
			want, ok := d.makeBid(phased(r.c.App, r.c.Work, r.c.MinPE, r.c.MaxPE, len(r.c.Phases)))
			if !ok || !sameOffer(got.Bid, want) {
				t.Fatalf("round %d request %d: bid %+v, a fresh request gets %+v", round, i, got.Bid, want)
			}
		}
	}
	if hits := d.met.verifyCacheHits.Value(); hits == 0 {
		t.Fatal("the verify cache never hit: the test did not exercise it")
	}
}

// TestMakeBidKeepsNothingOfTheContract: the contract handed to makeBid
// lives in a scratch the next request overwrites. Under every scheduler
// (Profit's estimate builds a probe job around it) and bidder, scribbling
// over it afterwards changes no later bid and leaves the scheduler as it
// was.
func TestMakeBidKeepsNothingOfTheContract(t *testing.T) {
	for _, sched := range []string{"fcfs", "backfill", "equipartition", "profit"} {
		for _, bidder := range []string{"baseline", "utilization"} {
			t.Run(sched+"/"+bidder, func(t *testing.T) {
				mk, _ := scheduler.ByName(sched)
				gen, _ := bidding.ByName(bidder)
				info := protocol.ServerInfo{Spec: spec("turing", 64)}
				d, _ := startDaemon(t, Config{Info: info, Scheduler: mk(info.Spec, scheduler.Config{}), Bidder: gen, TimeScale: 1e-6})
				// Something running, so an estimate has a plan to fit into.
				if err := d.submit(protocol.SubmitReq{User: "u", JobID: "resident", Contract: phased("synth", 1e9, 8, 32, 2)}); err != nil {
					t.Fatal(err)
				}
				fresh := func() *qos.Contract { return phased("synth", 5000, 4, 48, 2) }
				scratch := fresh()
				first, ok := d.makeBid(scratch)
				if !ok {
					t.Fatal("declined")
				}
				*scratch = qos.Contract{App: "scribbled", MinPE: 63, MaxPE: 64, Work: 1, Phases: scratch.Phases[:1]}
				scratch.Phases[0] = qos.Phase{Name: "scribbled", Work: 1, MinPE: 63, MaxPE: 64}
				again, ok := d.makeBid(fresh())
				if !ok || !sameOffer(first, again) {
					t.Fatalf("after the scratch was overwritten the same contract bids %+v, was %+v", again, first)
				}
				d.mu.Lock()
				running, queued := d.cfg.Scheduler.RunningCount(), d.cfg.Scheduler.QueueLen()
				d.mu.Unlock()
				if running+queued != 1 {
					t.Fatalf("scheduler holds %d running + %d queued after two estimates, want the resident job alone", running, queued)
				}
			})
		}
	}
}

// discard is a connection that swallows replies.
type discard struct{}

func (discard) Read([]byte) (int, error)    { return 0, io.EOF }
func (discard) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkBidDispatch is one bid request through the daemon's arm on a
// warm connection: decode, verify (cache hit), estimate, bid, encode.
// From one user it allocates nothing; with two users alternating — what
// two clients bidding on one daemon look like — each request
// re-materialises the three strings that differ from the scratch's last
// (user, token, application) and nothing else. CI gates both.
func BenchmarkBidDispatch(b *testing.B) {
	info := protocol.ServerInfo{Spec: spec("turing", 64), Apps: []string{"synth", "namd"}}
	d, err := New(Config{Info: info, Scheduler: scheduler.NewEquipartition(info.Spec, scheduler.Config{}),
		CentralAddr: "127.0.0.1:1", VerifyCacheTTL: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	var frames [2]protocol.Frame
	for i, req := range []protocol.BidReq{
		{User: "user-00", Token: "tok-0123456789abcdef", Contract: phased("synth", 400, 2, 16, 2)},
		{User: "user-01", Token: "tok-fedcba9876543210", Contract: phased("namd", 9000, 8, 64, 2)},
	} {
		d.verifyCache[verifyKey{req.User, req.Token}] = time.Now().Add(time.Hour)
		buf, err := protocol.AppendFrame(nil, protocol.CodecBinary, uint64(i+1), protocol.TypeBidReq, req)
		if err != nil {
			b.Fatal(err)
		}
		if frames[i], err = protocol.NewFrameReader(&onceReader{buf}).Next(); err != nil {
			b.Fatal(err)
		}
	}
	conn := protocol.NewReplyConn(discard{})
	for _, bc := range []struct {
		name string
		mask int
	}{{"one_user", 0}, {"two_users", 1}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := d.dispatch(conn, frames[i&bc.mask]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// onceReader serves one buffer.
type onceReader struct{ b []byte }

func (r *onceReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, nil
}
