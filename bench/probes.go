package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"faucets/internal/accounting"
	"faucets/internal/auth"
	"faucets/internal/bidding"
	"faucets/internal/central"
	"faucets/internal/client"
	"faucets/internal/db"
	"faucets/internal/gantt"
	"faucets/internal/job"
	"faucets/internal/machine"
	"faucets/internal/market"
	"faucets/internal/protocol"
	"faucets/internal/qos"
	"faucets/internal/scheduler"
	"faucets/internal/shard"
	"faucets/internal/sim"
	"faucets/internal/workload"
)

// Probes are closed-loop, single-caller timings of each layer's public
// functions, taken after the measured windows. They price a layer alone,
// so a change to one layer shows here first and the windows show whether
// it reached the whole trip.

const (
	probeLoops = 20000 // iterations of an in-process probe (reported as a mean)
	probeCalls = 200   // round trips of a wire or disk probe (reported as a median)
	// probeBudget caps one in-process probe, so a slow function cannot
	// stretch the run.
	probeBudget = 150 * time.Millisecond
)

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink any

// nsPerOp is the mean time of one call, over n calls or as many as fit in
// probeBudget, whichever is fewer.
func nsPerOp(n int, fn func(i int)) float64 {
	start := time.Now()
	done := 0
	for done < n {
		fn(done)
		done++
		if done%64 == 0 && time.Since(start) > probeBudget {
			break
		}
	}
	return float64(time.Since(start)) / float64(done)
}

// p50Us is the median time of one call over n calls, in microseconds. The
// first error ends the probe.
func p50Us(n int, fn func(i int) error) (float64, error) {
	var s samples
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		s.addSince(start, time.Now(), time.Microsecond)
	}
	return s.pct(50), nil
}

var probeContract = &qos.Contract{App: benchApp, MinPE: 2, MaxPE: 8, Work: 10}

// runProbes fills lv with every probe that applies: the in-process ones
// always, the wire ones when a live grid is given. A probe that errors
// leaves its metric at 0 and is reported on standard error.
func runProbes(cfg *runCfg, lv layerValues, lg *liveGrid, led *ledger) {
	probeInProcess(cfg, lv)
	if lg != nil {
		if err := probeGrid(lv, lg, led); err != nil {
			logf("probe: %v", err)
		}
	}
}

func probeInProcess(cfg *runCfg, lv layerValues) {
	// protocol: one bid request through the binary codec.
	req := protocol.BidReq{User: "user-00", Token: "tok-0123456789abcdef", Contract: probeContract}
	buf := make([]byte, 0, 1024)
	lv["protocol.encode_bidreq_ns"] = nsPerOp(probeLoops, func(i int) {
		buf, _ = protocol.AppendFrame(buf[:0], protocol.CodecBinary, uint64(i)+1, protocol.TypeBidReq, req)
	})
	lv["protocol.frame_bytes_bidreq"] = float64(len(buf))
	frame := append([]byte(nil), buf...)
	rd := bytes.NewReader(frame)
	lv["protocol.decode_bidreq_ns"] = nsPerOp(probeLoops, func(int) {
		rd.Reset(frame)
		f, err := protocol.ReadFrame(rd)
		if err != nil {
			return
		}
		var out protocol.BidReq
		_ = protocol.Decode(f, protocol.TypeBidReq, &out)
		sink = &out
	})

	// market: a 16-way solicit with no wire under it.
	ports := make([]market.ServerPort, wideDaemons)
	for i := range ports {
		ports[i] = memPort{name: fmt.Sprintf("mem-%02d", i), price: 10 + float64(i)}
	}
	lv["market.solicit_mem16_p50_us"], _ = p50Us(2000, func(int) error {
		sink = market.SolicitWith(0, ports, probeContract, market.LeastCost{}, market.SolicitOpts{})
		return nil
	})

	state := bidding.ServerState{NumPE: 256, UsedPE: 64, QueuedWork: 500, Speed: 1, CostRate: 0.01, EstimatedCompletion: 30, CanRun: true}
	bidder := bidding.NewUtilization()
	lv["bidding.make_ns"] = nsPerOp(probeLoops, func(i int) {
		sink, _ = bidding.Make(bidder, "cs-00", float64(i), probeContract, state, 300)
	})

	spec := machine.Spec{Name: "probe", NumPE: 256, MemPerPE: 2048, Speed: 1, CostRate: 0.01}
	sch := scheduler.NewEquipartition(spec, scheduler.Config{})
	now := 0.0
	lv["scheduler.submit_finish_ns"] = nsPerOp(probeLoops, func(i int) {
		c := &qos.Contract{App: benchApp, MinPE: 2, MaxPE: 32, Work: 100}
		sch.Submit(now, job.New(job.ID(fmt.Sprintf("p%d", i)), "u", c, now))
		now++
		sch.Advance(now)
	})
	busy := scheduler.NewEquipartition(spec, scheduler.Config{})
	for i := 0; i < 100; i++ {
		c := &qos.Contract{App: benchApp, MinPE: 1, MaxPE: 4, Work: 1e9}
		busy.Submit(0, job.New(job.ID(fmt.Sprintf("b%d", i)), "u", c, 0))
	}
	lv["scheduler.estimate_ns"] = nsPerOp(probeLoops, func(int) {
		sink, _ = busy.EstimateCompletion(1, probeContract)
	})

	chart := gantt.NewChart(1024)
	rng := sim.NewRNG(3)
	for i := 0; i < 200; i++ {
		start := rng.Range(0, 1000)
		_, _ = chart.Reserve(start, start+rng.Range(10, 100), 1+rng.Intn(512))
	}
	lv["gantt.find_window_ns"] = nsPerOp(probeLoops, func(int) {
		sink, _ = chart.FindWindow(rng.Range(0, 1000), 50, 256, 0)
	})

	al := machine.NewAllocator(1024)
	lv["machine.alloc_release_ns"] = nsPerOp(probeLoops, func(int) {
		if a, err := al.Alloc(64); err == nil {
			al.Release(a)
		}
	})

	ring := shard.New([]string{"127.0.0.1:9100", "127.0.0.1:9101", "127.0.0.1:9102"})
	users := userNames(fleetUsers)
	lv["shard.owner_ns"] = nsPerOp(probeLoops, func(i int) {
		sink = ring.OwnerUser(users[i%len(users)])
	})

	eng := sim.NewEngine()
	lv["sim.event_churn_ns"] = nsPerOp(probeLoops, func(int) {
		eng.After(1, "tick", func(*sim.Engine) {})
		eng.Step()
	})

	wl := workload.Default(uint64(cfg.seed), 1000, 5)
	lv["workload.generate_ms"] = nsPerOp(20, func(int) {
		sink, _ = workload.Generate(wl)
	}) / 1e6

	acct := accounting.New(accounting.Dollars, db.New())
	lv["accounting.settle_mem_ns"] = nsPerOp(probeLoops, func(i int) {
		_ = acct.Settle("job", users[i%len(users)], "", "cs-00", 1.5)
	})

	au := auth.New(time.Hour)
	if err := au.AddUser("user-00", benchPassword, ""); err == nil {
		if tok, err := au.Login("user-00", benchPassword); err == nil {
			lv["auth.verify_ns"] = nsPerOp(probeLoops, func(int) {
				sink, _ = au.Verify(tok)
			})
		}
	}

	probeDB(cfg, lv)
}

// probeDB times the durable commit path on a database of its own: one
// caller, where each commit is one fsync, and eight, where group commit
// may share them.
func probeDB(cfg *runCfg, lv layerValues) {
	store, err := db.Open(filepath.Join(cfg.dir, "probe-db"))
	if err != nil {
		logf("probe: db: %v", err)
		return
	}
	defer store.Close()
	lv["db.commit_p50_us"], _ = p50Us(probeCalls, func(int) error {
		store.AddCredits("probe", 1)
		return nil
	})
	const callers = 8
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < probeCalls; i++ {
				store.AddCredits(fmt.Sprintf("probe-%d", c), 1)
			}
		}()
	}
	wg.Wait()
	lv["db.commit_conc8_per_s"] = callers * probeCalls / time.Since(start).Seconds()
}

// memPort is a Compute Server that bids from memory.
type memPort struct {
	name  string
	price float64
}

func (p memPort) ServerName() string { return p.name }
func (p memPort) RequestBid(float64, *qos.Contract) (bidding.Bid, bool) {
	return bidding.Bid{Server: p.name, Price: p.price, Multiplier: 1, EstCompletion: 10}, true
}
func (p memPort) Commit(float64, string, bidding.Bid) error { return nil }

// homeServer is the Central Server (shard) a session is logged in at.
func (lg *liveGrid) homeServer(c *client.Client) *central.Server {
	for i, addr := range lg.g.ShardAddrs {
		if addr == c.CentralAddr {
			return lg.g.Shards[i]
		}
	}
	return lg.g.Central
}

// probeGrid times one request type at a time against the still-warm
// grid, over a connection pool of the probe's own. Jobs it starts and
// settlements it sends go into the ledger like any other.
func probeGrid(lv layerValues, lg *liveGrid, led *ledger) error {
	sess := lg.sessions[0]
	user, token := sess.User, sess.Token
	servers, err := sess.ListServers(nil)
	if err != nil || len(servers) == 0 {
		return fmt.Errorf("list servers: %d, %v", len(servers), err)
	}
	target := servers[0]
	pool := &protocol.Pool{}
	defer pool.Close()
	call := func(addr, reqType string, req any, wantReply string, reply any) error {
		return pool.Call(addr, 0, reqType, req, wantReply, reply)
	}
	var firstErr error
	keep := func(name string, v float64, err error) {
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", name, err)
		}
		lv[name] = v
	}

	v, err := p50Us(50, func(int) error {
		c, err := client.Login(lg.g.CentralAddr, user, benchPassword)
		if err == nil {
			c.Close()
		}
		return err
	})
	keep("client.login_p50_us", v, err)

	v, err = p50Us(5*probeCalls, func(int) error {
		var ok protocol.PollOK
		return call(target.Addr, protocol.TypePollReq, protocol.PollReq{}, protocol.TypePollOK, &ok)
	})
	keep("protocol.call_rtt_p50_us", v, err)

	// Bid, commit and submit, each timed alone, walk probeCalls jobs
	// through one daemon.
	bids := make([]bidding.Bid, probeCalls)
	v, err = p50Us(probeCalls, func(i int) error {
		var ok protocol.BidOK
		err := call(target.Addr, protocol.TypeBidReq, protocol.BidReq{User: user, Token: token, Contract: probeContract}, protocol.TypeBidOK, &ok)
		bids[i] = ok.Bid
		return err
	})
	keep("daemon.bid_rtt_p50_us", v, err)
	ids := make([]string, probeCalls)
	for i := range ids {
		ids[i] = client.NewJobID()
	}
	v, err = p50Us(probeCalls, func(i int) error {
		var ok protocol.CommitOK
		return call(target.Addr, protocol.TypeCommitReq, protocol.CommitReq{User: user, Token: token, JobID: ids[i], Bid: bids[i]}, protocol.TypeCommitOK, &ok)
	})
	keep("daemon.commit_rtt_p50_us", v, err)
	if err == nil {
		v, err = p50Us(probeCalls, func(i int) error {
			var ok protocol.SubmitOK
			err := call(target.Addr, protocol.TypeSubmitReq, protocol.SubmitReq{User: user, Token: token, JobID: ids[i], Contract: probeContract}, protocol.TypeSubmitOK, &ok)
			if err == nil {
				led.add(ids[i], bids[i].Price)
			}
			return err
		})
		keep("daemon.submit_rtt_p50_us", v, err)
	}

	v, err = p50Us(probeCalls, func(int) error {
		var ok protocol.VerifyOK
		return call(sess.CentralAddr, protocol.TypeVerifyReq, protocol.VerifyReq{User: user, Token: token}, protocol.TypeVerifyOK, &ok)
	})
	keep("central.verify_rtt_p50_us", v, err)

	home := lg.homeServer(sess)
	lv["central.servers_ns"] = nsPerOp(probeLoops/10, func(int) { sink = home.Servers(probeContract) })
	lv["central.weather_ns"] = nsPerOp(probeLoops/10, func(int) { sink = home.Weather() })

	// One settlement at a time, over the wire and then straight into the
	// server: the difference is framing, the socket and admission.
	settle := func(i int, tag string) protocol.SettleReq {
		return protocol.SettleReq{JobID: fmt.Sprintf("probe-%s-%d", tag, i), User: user, Server: target.Spec.Name,
			App: benchApp, MinPE: 2, MaxPE: 8, Price: 1 + float64(i%7), CPUSeconds: 10}
	}
	v, err = p50Us(probeCalls, func(i int) error {
		req := settle(i, "wire")
		var ok protocol.SettleOK
		err := call(sess.CentralAddr, protocol.TypeSettleReq, req, protocol.TypeSettleOK, &ok)
		if err == nil {
			led.add(req.JobID, req.Price)
		}
		return err
	})
	keep("central.settle_wire_p50_us", v, err)
	v, err = p50Us(probeCalls, func(i int) error {
		req := settle(i, "inproc")
		err := home.Settle(req)
		if err == nil {
			led.add(req.JobID, req.Price)
		}
		return err
	})
	keep("central.settle_inproc_p50_us", v, err)
	return firstErr
}
