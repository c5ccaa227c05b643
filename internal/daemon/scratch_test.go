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
	"faucets/internal/server"
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
				commitJob(t, d, "u", "resident", 1)
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

// bidDispatchCase is one bid request through the daemon's arm on a warm
// connection: decode, verify (cache hit), estimate, bid, encode. The
// requests come from one user, or alternate between two — what two
// clients bidding on one daemon look like — on one connection or each on
// its own.
func bidDispatchCase(tb testing.TB, users, conns int) func() {
	d := dispatchDaemon(tb)
	frames := make([]protocol.Frame, users)
	for i, req := range []protocol.BidReq{
		{User: "user-00", Token: "tok-0123456789abcdef", Contract: phased("synth", 400, 2, 16, 2)},
		{User: "user-01", Token: "tok-fedcba9876543210", Contract: phased("namd", 9000, 8, 64, 2)},
	}[:users] {
		d.verifyCache[verifyKey{req.User, req.Token}] = time.Now().Add(time.Hour)
		frames[i] = frameOf(tb, uint64(i+1), protocol.TypeBidReq, req)
	}
	rcs := make([]*protocol.ReplyConn, conns)
	for i := range rcs {
		rcs[i] = protocol.NewReplyConn(discard{})
	}
	next := 0
	return func() {
		if err := d.dispatch(rcs[next%conns], frames[next%users]); err != nil {
			tb.Fatal(err)
		}
		next++
	}
}

// commitDispatchCase is one commit through the daemon's arm on a warm
// connection: decode, verify (cache hit), hold, encode. Every commit
// carries a job ID the daemon holds nothing for, as a client's do, and
// none is followed by a submit, as on auction-wide: the case cycles
// through 4096 IDs and moves the daemon's clock past the holds' lapse
// before it comes back to the first.
func commitDispatchCase(tb testing.TB) func() {
	d := dispatchDaemon(tb)
	const user, token = "user-00", "tok-0123456789abcdef"
	d.verifyCache[verifyKey{user, token}] = time.Now().Add(time.Hour)
	const n = 4096
	frames := make([]protocol.Frame, n)
	for i := range frames {
		frames[i] = frameOf(tb, uint64(i+1), protocol.TypeCommitReq, protocol.CommitReq{
			User: user, Token: token, JobID: fmt.Sprintf("job-%016x", i),
			Bid: bidding.Bid{Server: "turing", Price: 16.25, EstCompletion: 120, Multiplier: 1},
		})
	}
	conn := protocol.NewReplyConn(discard{})
	next := 0
	return func() {
		if next%n == 0 {
			advance(d, server.BidValidity+1)
		}
		if err := d.dispatch(conn, frames[next%n]); err != nil {
			tb.Fatal(err)
		}
		next++
	}
}

// dispatchDaemon is a daemon that is never started, behind a Central
// Server it never reaches: the cases warm its verify cache.
func dispatchDaemon(tb testing.TB) *Daemon {
	info := protocol.ServerInfo{Spec: spec("turing", 64), Apps: []string{"synth", "namd"}}
	d, err := New(Config{Info: info, Scheduler: scheduler.NewEquipartition(info.Spec, scheduler.Config{}),
		CentralAddr: "127.0.0.1:1", VerifyCacheTTL: time.Hour})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(d.Close)
	return d
}

// frameOf encodes body as a binary request frame and reads it back, as
// a connection's reader hands it to dispatch.
func frameOf(tb testing.TB, id uint64, typ string, body any) protocol.Frame {
	tb.Helper()
	buf, err := protocol.AppendFrame(nil, protocol.CodecBinary, id, typ, body)
	if err != nil {
		tb.Fatal(err)
	}
	f, err := protocol.NewFrameReader(&onceReader{buf}).Next()
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

// BenchmarkBidDispatch times bidDispatchCase. TestBidDispatchAllocs pins
// it: from one user nothing, nor from two each on its own connection;
// between two on one connection, each request re-materialises the three
// strings that differ from the connection's last (user, token,
// application) and nothing else.
func BenchmarkBidDispatch(b *testing.B) {
	for _, bc := range []struct {
		name         string
		users, conns int
	}{{"one_user", 1, 1}, {"two_users", 2, 1}, {"two_users_two_conns", 2, 2}} {
		b.Run(bc.name, func(b *testing.B) {
			dispatch := bidDispatchCase(b, bc.users, bc.conns)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dispatch()
			}
		})
	}
}

// BenchmarkCommitDispatch times commitDispatchCase, which
// TestCommitDispatchAllocs pins.
func BenchmarkCommitDispatch(b *testing.B) {
	dispatch := commitDispatchCase(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dispatch()
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

// TestSubmitKeepsNothingOfTheScratch: submits decode into the
// connection's scratch, which the next submit overwrites, phase list
// included. Each admitted job keeps the contract it was submitted with,
// and its journal record says the same.
func TestSubmitKeepsNothingOfTheScratch(t *testing.T) {
	d, addr := startDaemon(t, Config{
		Info:      protocol.ServerInfo{Spec: spec("turing", 64), Apps: []string{"synth", "namd"}},
		StateDir:  t.TempDir(),
		TimeScale: 1e-6,
	})
	conn := dial(t, addr)
	shapes := []*qos.Contract{phased("synth", 400, 2, 16, 2), phased("namd", 9000, 8, 32, 3), phased("synth", 50, 1, 4, 0)}
	for i, c := range shapes {
		id := fmt.Sprintf("j-%d", i)
		commitJob(t, d, "alice", id, 1)
		var ok protocol.SubmitOK
		if err := protocol.Call(conn, protocol.TypeSubmitReq, protocol.SubmitReq{User: "alice", JobID: id, Contract: c}, protocol.TypeSubmitOK, &ok); err != nil || ok.JobID != id {
			t.Fatalf("submit %s: %+v, %v", id, ok, err)
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, c := range shapes {
		j := d.jobs[fmt.Sprintf("j-%d", i)].j
		want := phased(c.App, c.Work, c.MinPE, c.MaxPE, len(c.Phases))
		if fmt.Sprint(*j.Contract) != fmt.Sprint(*want) {
			t.Errorf("job %d keeps %+v, was submitted with %+v", i, *j.Contract, *want)
		}
	}
}

// signalling is a connection whose every reply write is announced on
// wrote, so a case can wait for a reply written from another goroutine.
type signalling struct{ wrote chan struct{} }

func (signalling) Read([]byte) (int, error) { return 0, io.EOF }
func (s signalling) Write(p []byte) (int, error) {
	s.wrote <- struct{}{}
	return len(p), nil
}

// submitDispatchCase is one submit through the daemon's arm on a warm
// connection, each for a job ID committed beforehand: decode, verify
// (cache hit), admit, and the deferred reply, which the case waits for.
// The daemon's clock stands still, so the jobs pile up in its scheduler.
func submitDispatchCase(tb testing.TB, n int) func() {
	d := dispatchDaemon(tb)
	d.cfg.TimeScale = 1e-9
	const user, token = "user-00", "tok-0123456789abcdef"
	d.verifyCache[verifyKey{user, token}] = time.Now().Add(time.Hour)
	frames := make([]protocol.Frame, n)
	for i := range frames {
		id := fmt.Sprintf("job-%016x", i)
		commitJob(tb, d, user, id, 16.25)
		frames[i] = frameOf(tb, uint64(i+1), protocol.TypeSubmitReq, protocol.SubmitReq{
			User: user, Token: token, JobID: id, Contract: phased("synth", 400, 1, 2, 0),
		})
	}
	wrote := make(chan struct{}, 1)
	conn := protocol.NewReplyConn(signalling{wrote})
	next := 0
	return func() {
		if err := d.dispatch(conn, frames[next%n]); err != nil {
			tb.Fatal(err)
		}
		<-wrote
		next++
	}
}
