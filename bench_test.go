package faucets_test

// The benchmark harness regenerates every experiment in EXPERIMENTS.md
// (the paper publishes no quantitative tables, so each falsifiable claim
// in its text is an experiment — see DESIGN.md §4). Run with:
//
//	go test -bench=. -benchmem
//
// Each BenchmarkE* executes the full experiment per iteration and
// reports its headline quantities as custom metrics, so the bench output
// itself is a compact reproduction record. Micro-benchmarks at the
// bottom cover the engine hot paths.

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"net"

	"faucets/internal/accounting"
	"faucets/internal/bidding"
	"faucets/internal/central"
	"faucets/internal/daemon"
	"faucets/internal/db"
	"faucets/internal/experiments"
	"faucets/internal/gantt"
	"faucets/internal/grid"
	"faucets/internal/health"
	"faucets/internal/machine"
	"faucets/internal/market"
	"faucets/internal/protocol"
	"faucets/internal/qos"
	"faucets/internal/scheduler"
	"faucets/internal/shard"
	"faucets/internal/sim"
	"faucets/internal/telemetry"
	"faucets/internal/workload"

	"faucets/internal/job"
)

const benchSeed = 42

// reportTable attaches selected table cells as benchmark metrics.
func reportTable(b *testing.B, t *experiments.Table, cells map[string][2]string) {
	for metric, cell := range cells {
		if v, ok := t.Get(cell[0], cell[1]); ok {
			b.ReportMetric(v, metric)
		}
	}
}

func BenchmarkE1InternalFragmentation(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.E1InternalFragmentation(benchSeed)
	}
	reportTable(b, t, map[string][2]string{
		"fcfs_A_wait_s":     {"fcfs", "A_wait_s"},
		"adaptive_A_wait_s": {"equipartition latency=0s", "A_wait_s"},
	})
}

func BenchmarkE2ExternalFragmentation(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.E2ExternalFragmentation(benchSeed)
	}
	reportTable(b, t, map[string][2]string{
		"locked_resp_s": {"locked-to-one", "mean_resp_s"},
		"open_resp_s":   {"open-market", "mean_resp_s"},
	})
}

func BenchmarkE3AdaptiveVsRigid(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.E3AdaptiveVsRigid(benchSeed)
	}
	reportTable(b, t, map[string][2]string{
		"fcfs_resp_hot_s": {"fcfs gap=5s", "mean_resp_s"},
		"equi_resp_hot_s": {"equipartition gap=5s", "mean_resp_s"},
		"equi_util_hot":   {"equipartition gap=5s", "utilization"},
		"fcfs_util_hot":   {"fcfs gap=5s", "utilization"},
	})
}

func BenchmarkE4BidStrategies(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.E4BidStrategies(benchSeed)
	}
	reportTable(b, t, map[string][2]string{
		"baseline_revenue": {"all-baseline", "revenue"},
		"util_revenue":     {"all-utilization", "revenue"},
		"util_multiplier":  {"all-utilization", "mean_multiplier"},
	})
}

func BenchmarkE5PayoffAdmission(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.E5PayoffAdmission(benchSeed)
	}
	reportTable(b, t, map[string][2]string{
		"acceptall_payoff": {"fcfs accept-all", "total_payoff"},
		"profit_payoff":    {"profit lookahead=600s", "total_payoff"},
		"profit_rejected":  {"profit lookahead=600s", "rejected"},
	})
}

func BenchmarkE6Bartering(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.E6Bartering(benchSeed)
	}
	reportTable(b, t, map[string][2]string{
		"noshare_resp_s": {"no-sharing", "mean_resp_s"},
		"barter_resp_s":  {"bartering", "mean_resp_s"},
		"helper_credits": {"bartering", "helper_credits"},
	})
}

func BenchmarkE7BidScalability(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.E7BidScalability(benchSeed)
	}
	reportTable(b, t, map[string][2]string{
		"n1000_broadcast_msgs": {"n=1000 broadcast", "bid_messages"},
		"n1000_filtered_msgs":  {"n=1000 filtered", "bid_messages"},
	})
}

func BenchmarkE8TwoPhaseCommit(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.E8TwoPhaseCommit(benchSeed)
	}
	reportTable(b, t, map[string][2]string{
		"twophase_placed":    {"two-phase", "placed"},
		"singlephase_placed": {"single-phase", "placed"},
	})
}

// --- Micro-benchmarks: engine hot paths ---

func BenchmarkSimEngineEventChurn(b *testing.B) {
	e := sim.NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(1, "tick", func(*sim.Engine) {})
		e.Step()
	}
}

func BenchmarkSimEngineHeap1k(b *testing.B) {
	// Maintain a 1000-event horizon and churn through it.
	e := sim.NewEngine()
	rng := sim.NewRNG(1)
	for i := 0; i < 1000; i++ {
		e.After(sim.Duration(rng.Range(0, 100)), "seed", func(en *sim.Engine) {})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(sim.Duration(rng.Range(0, 100)), "churn", func(*sim.Engine) {})
		e.Step()
	}
}

func BenchmarkProtocolFrameRoundTrip(b *testing.B) {
	body := protocol.Telemetry{JobID: "job-123", Time: 42.5, PEs: 64, Util: 0.93, Done: 0.5, State: "running"}
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := protocol.WriteFrame(&buf, protocol.TypeTelemetry, body); err != nil {
			b.Fatal(err)
		}
		f, err := protocol.ReadFrame(&buf)
		if err != nil {
			b.Fatal(err)
		}
		var out protocol.Telemetry
		if err := protocol.Decode(f, protocol.TypeTelemetry, &out); err != nil {
			b.Fatal(err)
		}
	}
}

// solicitEncodeBody is the request every auction fan-out sends once per
// candidate server — the hottest encode in the system.
func solicitEncodeBody() protocol.BidReq {
	return protocol.BidReq{
		User:  "alice",
		Token: "tok-0123456789abcdef",
		Contract: &qos.Contract{
			App: "synth", MinPE: 2, MaxPE: 16, Work: 100,
			Payoff: qos.Payoff{Soft: 300, Hard: 600, AtSoft: 10, AtHard: 2, Penalty: 1},
			Phases: []qos.Phase{
				{Name: "setup", Work: 10, MinPE: 1, MaxPE: 4},
				{Name: "solve", Work: 90, MinPE: 2, MaxPE: 16},
			},
		},
	}
}

// BenchmarkSolicitEncodeBinary measures the binary wire encoding of one
// solicit (bid request) frame into a reused buffer. This is the path
// BENCH_BASELINE.json gates at ≤8 allocs/op via benchgate -allocs; the
// hand-rolled encoder is expected to be allocation-free once the buffer
// has grown to frame size.
func BenchmarkSolicitEncodeBinary(b *testing.B) {
	body := solicitEncodeBody()
	buf := make([]byte, 0, 1024)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := protocol.AppendFrame(buf[:0], protocol.CodecBinary, uint64(i)+1, protocol.TypeBidReq, body)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("empty frame")
		}
	}
}

// BenchmarkSolicitEncodeJSON is the same frame through the legacy JSON
// codec — the comparison that justifies the binary hot path.
func BenchmarkSolicitEncodeJSON(b *testing.B) {
	body := solicitEncodeBody()
	buf := make([]byte, 0, 1024)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := protocol.AppendFrame(buf[:0], protocol.CodecJSON, uint64(i)+1, protocol.TypeBidReq, body)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("empty frame")
		}
	}
}

func BenchmarkAllocatorAllocRelease(b *testing.B) {
	al := machine.NewAllocator(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a, err := al.Alloc(64)
		if err != nil {
			b.Fatal(err)
		}
		al.Release(a)
	}
}

func BenchmarkEquipartitionSubmitFinish(b *testing.B) {
	spec := machine.Spec{Name: "m", NumPE: 256, MemPerPE: 2048, Speed: 1, CostRate: 0.01}
	s := scheduler.NewEquipartition(spec, scheduler.Config{})
	now := 0.0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := &qos.Contract{App: "p", MinPE: 2, MaxPE: 32, Work: 100}
		j := job.New(job.ID(fmt.Sprintf("j%d", i)), "u", c, now)
		s.Submit(now, j)
		now += 1
		s.Advance(now)
	}
}

func BenchmarkWorkloadGenerate(b *testing.B) {
	spec := workload.Default(benchSeed, 1000, 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := workload.Generate(spec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkX1Preemption(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.X1Preemption(benchSeed)
	}
	reportTable(b, t, map[string][2]string{
		"nopreempt_urgent_met": {"profit no-preempt", "urgent_met"},
		"preempt_urgent_met":   {"profit preempt", "urgent_met"},
		"preempt_checkpoints":  {"profit preempt", "checkpoints"},
	})
}

func BenchmarkX2GridWeather(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.X2GridWeather(benchSeed)
	}
	reportTable(b, t, map[string][2]string{
		"weather_revenue": {"weather", "revenue"},
		"util_revenue":    {"utilization", "revenue"},
	})
}

func BenchmarkGanttFindWindow(b *testing.B) {
	c := gantt.NewChart(1024)
	rng := sim.NewRNG(3)
	for i := 0; i < 200; i++ {
		start := rng.Range(0, 1000)
		_, _ = c.Reserve(start, start+rng.Range(10, 100), 1+rng.Intn(512))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.FindWindow(rng.Range(0, 1000), 50, 256, 0)
	}
}

// BenchmarkLiveBidRoundTrip measures the real wire path: client →
// Faucets Daemon bid request over loopback TCP, including the daemon's
// scheduler estimate and bid generation.
func BenchmarkLiveBidRoundTrip(b *testing.B) {
	spec := machine.Spec{Name: "bench", NumPE: 64, MemPerPE: 2048, CPUType: "x86", Speed: 1, CostRate: 0.01}
	d, err := daemon.New(daemon.Config{
		Info:      protocol.ServerInfo{Spec: spec, Apps: []string{"synth"}},
		Scheduler: scheduler.NewEquipartition(spec, scheduler.Config{}),
		TimeScale: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	if err := d.Start(l); err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	c := &qos.Contract{App: "synth", MinPE: 2, MaxPE: 16, Work: 100}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var reply protocol.BidOK
		if err := protocol.Call(conn, protocol.TypeBidReq, protocol.BidReq{User: "u", Contract: c}, protocol.TypeBidOK, &reply); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTelemetryHotPath measures the instrumented fast path every
// daemon tick and RPC dispatch pays: a counter increment, a gauge store,
// and a histogram observation on pre-resolved instruments. All three
// must be allocation-free — scrapes format text, updates never do.
func BenchmarkTelemetryHotPath(b *testing.B) {
	reg := telemetry.NewRegistry()
	ctr := reg.Counter("faucets_bench_ops_total", "bench")
	gau := reg.Gauge("faucets_bench_depth", "bench")
	his := reg.Histogram("faucets_bench_latency_seconds", "bench", nil)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctr.Inc()
		gau.Set(float64(i))
		his.Observe(float64(i%1000) * 0.0001)
	}
}

// BenchmarkTelemetryTraceRecord measures one span append on a warm job
// trace — the per-lifecycle-event cost inside the daemons.
func BenchmarkTelemetryTraceRecord(b *testing.B) {
	tr := telemetry.NewTracer(8)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Record("job-bench", telemetry.SpanStart, "")
	}
}

// --- RPC transport benchmarks: per-call dial vs pooled connections ---

// startBenchDaemon boots a bid-serving daemon on loopback for the
// transport and fan-out benchmarks.
func startBenchDaemon(b *testing.B, name string) string {
	b.Helper()
	spec := machine.Spec{Name: name, NumPE: 64, MemPerPE: 2048, CPUType: "x86", Speed: 1, CostRate: 0.01}
	d, err := daemon.New(daemon.Config{
		Info:      protocol.ServerInfo{Spec: spec, Apps: []string{"synth"}},
		Scheduler: scheduler.NewEquipartition(spec, scheduler.Config{}),
		TimeScale: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	if err := d.Start(l); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(d.Close)
	return l.Addr().String()
}

// BenchmarkRPCDialPerCall measures the historical transport: every bid
// request pays a fresh TCP dial, one exchange, and a close.
func BenchmarkRPCDialPerCall(b *testing.B) {
	addr := startBenchDaemon(b, "bench")
	c := &qos.Contract{App: "synth", MinPE: 2, MaxPE: 16, Work: 100}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var reply protocol.BidOK
		if err := protocol.DialCall(addr, 0, protocol.TypeBidReq, protocol.BidReq{User: "u", Contract: c}, protocol.TypeBidOK, &reply); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRPCPooled measures the same exchange over a connection pool:
// the dial is amortized across calls and replies are demultiplexed by
// frame ID. The CI bench artifact pairs this with BenchmarkRPCDialPerCall
// to keep the pooling win visible (it must stay well above 2x).
func BenchmarkRPCPooled(b *testing.B) {
	addr := startBenchDaemon(b, "bench")
	p := &protocol.Pool{}
	defer p.Close()
	c := &qos.Contract{App: "synth", MinPE: 2, MaxPE: 16, Work: 100}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var reply protocol.BidOK
		if err := p.Call(addr, 0, protocol.TypeBidReq, protocol.BidReq{User: "u", Contract: c}, protocol.TypeBidOK, &reply); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGridSustainedAuctions is the end-to-end number the CI bench
// gate guards: full §5 auctions (directory filter → request-for-bids →
// two-phase award) per second against a live two-cluster loopback grid,
// everything riding pooled connections. A regression here means the
// wire layer, the market round, or the daemons' bid path got slower.
func BenchmarkGridSustainedAuctions(b *testing.B) {
	g, err := grid.Start([]grid.ClusterSpec{
		{Spec: machine.Spec{Name: "turing", NumPE: 64, MemPerPE: 1024, CPUType: "x86", Speed: 1, CostRate: 0.010}, Apps: []string{"synth"}},
		{Spec: machine.Spec{Name: "lemieux", NumPE: 128, MemPerPE: 1024, CPUType: "x86", Speed: 1, CostRate: 0.008}, Apps: []string{"synth"}},
	}, grid.Options{Users: map[string]string{"alice": "pw"}})
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	cl, err := g.Login("alice", "pw")
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	c := &qos.Contract{App: "synth", MinPE: 2, MaxPE: 8, Work: 50}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Place(c, market.LeastCost{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "auctions/s")
}

// --- Auction fan-out benchmarks: parallel vs serial request-for-bids ---

// benchBidPort adapts a live daemon address to market.ServerPort over a
// pooled connection — the same shape the client's fan-out uses.
type benchBidPort struct {
	name string
	addr string
	pool *protocol.Pool
}

func (p *benchBidPort) ServerName() string { return p.name }

func (p *benchBidPort) RequestBid(_ float64, c *qos.Contract) (bidding.Bid, bool) {
	var reply protocol.BidOK
	if err := p.pool.Call(p.addr, 2*time.Second, protocol.TypeBidReq,
		protocol.BidReq{User: "u", Contract: c}, protocol.TypeBidOK, &reply); err != nil {
		return bidding.Bid{}, false
	}
	return reply.Bid, reply.Bid.Server != ""
}

func (p *benchBidPort) Commit(float64, string, bidding.Bid) error { return nil }

// startSlowBidStub serves bids only after a fixed delay — the hung
// daemon every fan-out auction must tolerate.
func startSlowBidStub(b *testing.B, name string, delay time.Duration) string {
	b.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				rc := protocol.NewReplyConn(conn)
				var wmu sync.Mutex // serializes ID-stamped reply writes
				for {
					f, err := protocol.ReadFrame(conn)
					if err != nil {
						return
					}
					// Answer on a separate goroutine so forfeited (timed-out)
					// requests from earlier rounds cannot queue up behind this
					// round's delay.
					go func(id uint64) {
						time.Sleep(delay)
						wmu.Lock()
						defer wmu.Unlock()
						rc.SetID(id)
						_ = protocol.WriteFrame(rc, protocol.TypeBidOK, protocol.BidOK{
							Bid: bidding.Bid{Server: name, Price: 0.001, EstCompletion: 1},
						})
					}(f.ID)
				}
			}()
		}
	}()
	return l.Addr().String()
}

// benchFanoutPorts builds the ISSUE's reference auction: 12 live
// Faucets Daemons plus one seeded slow bidder (10ms before it answers).
func benchFanoutPorts(b *testing.B) []market.ServerPort {
	b.Helper()
	pool := &protocol.Pool{}
	b.Cleanup(func() { pool.Close() })
	var ports []market.ServerPort
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("bench-%02d", i)
		ports = append(ports, &benchBidPort{name: name, addr: startBenchDaemon(b, name), pool: pool})
	}
	ports = append(ports, &benchBidPort{
		name: "zz-slow", addr: startSlowBidStub(b, "zz-slow", 10*time.Millisecond), pool: pool,
	})
	return ports
}

// BenchmarkAuctionFanout measures one full request-for-bids round over
// the parallel fan-out: 12 live daemons answer concurrently and the
// seeded slow bidder forfeits at the 2ms per-bid deadline instead of
// stalling the auction. Pair with BenchmarkAuctionFanoutSerial — the
// ratio is the headline win and must stay ≥3x.
func BenchmarkAuctionFanout(b *testing.B) {
	ports := benchFanoutPorts(b)
	c := &qos.Contract{App: "synth", MinPE: 2, MaxPE: 16, Work: 100}
	opts := market.SolicitOpts{Concurrency: 16, Timeout: 2 * time.Millisecond}
	market.SolicitWith(0, ports, c, market.LeastCost{}, market.SolicitOpts{Concurrency: 1}) // warm the connection pool
	// One probe round outside the timer: the slow bidder must forfeit and
	// a quorum must remain. (Inside the timed loop the counts depend on
	// runner load, so asserting them there makes the benchmark flaky —
	// the determinism properties are unit-tested in internal/market.)
	probe := market.SolicitWith(0, ports, c, market.LeastCost{}, opts)
	if len(probe) < 8 {
		b.Fatalf("probe bids=%d, want most of the 12 fast daemons", len(probe))
	}
	for _, bid := range probe {
		if bid.Server == "zz-slow" {
			b.Fatal("slow bidder answered inside the per-bid deadline")
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		market.SolicitWith(0, ports, c, market.LeastCost{}, opts)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "auctions/s")
}

// BenchmarkAuctionFanoutSerial is the historical one-at-a-time walk over
// the identical fleet: every round pays the sum of all round trips plus
// the slow bidder's full 10ms answer time.
func BenchmarkAuctionFanoutSerial(b *testing.B) {
	ports := benchFanoutPorts(b)
	c := &qos.Contract{App: "synth", MinPE: 2, MaxPE: 16, Work: 100}
	serial := market.SolicitOpts{Concurrency: 1}
	market.SolicitWith(0, ports, c, market.LeastCost{}, serial) // warm the connection pool
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bids := market.SolicitWith(0, ports, c, market.LeastCost{}, serial); len(bids) != 13 {
			b.Fatalf("bids=%d, want 13 (serial waits the slow bidder out)", len(bids))
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "auctions/s")
}

// memBidPort answers bids in-process with a fixed price — no network,
// so BenchmarkSolicitWithBreakers measures only the fan-out machinery
// and its breaker gate, with a deterministic allocation profile the CI
// gate can hold to an absolute ceiling.
type memBidPort struct {
	name  string
	price float64
}

func (p *memBidPort) ServerName() string { return p.name }
func (p *memBidPort) RequestBid(_ float64, _ *qos.Contract) (bidding.Bid, bool) {
	return bidding.Bid{Server: p.name, Price: p.price, EstCompletion: 1}, true
}
func (p *memBidPort) Commit(float64, string, bidding.Bid) error { return nil }

// BenchmarkSolicitWithBreakers is the breaker-gate overhead number: a
// 13-daemon fan-out where every circuit breaker is CLOSED, so the gate
// is pure bookkeeping on the hot path and must stay within an absolute
// allocation ceiling (CI -allocs gate). An OPEN breaker makes auctions
// cheaper, not slower — the expensive failure mode is a gate that taxes
// the all-healthy common case.
func BenchmarkSolicitWithBreakers(b *testing.B) {
	set := health.NewSet(health.Options{})
	ports := make([]market.ServerPort, 13)
	for i := range ports {
		ports[i] = &memBidPort{name: fmt.Sprintf("bench-%02d", i), price: 0.001 * float64(i+1)}
	}
	for _, p := range ports { // every breaker has history and is CLOSED
		set.Record(p.ServerName(), time.Millisecond, nil)
	}
	opts := market.SolicitOpts{
		Concurrency: 16,
		Gate:        func(s market.ServerPort) bool { return set.Healthy(s.ServerName()) },
	}
	c := &qos.Contract{App: "synth", MinPE: 2, MaxPE: 16, Work: 100}
	if bids := market.SolicitWith(0, ports, c, market.LeastCost{}, opts); len(bids) != 13 {
		b.Fatalf("bids=%d, want 13 with every breaker closed", len(bids))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		market.SolicitWith(0, ports, c, market.LeastCost{}, opts)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "auctions/s")
}

// --- Sharded control-plane benchmarks ---

// startBenchShardMesh boots n in-process Central Server shards over a
// consistent-hash ring, each journaling settlements to its own durable
// WAL. No listeners: every operation is routed in-process to the owning
// shard, exactly the path a ring-aware client takes after its first
// NOT_OWNER redirect, so the benchmark isolates the control plane's
// serialized cost (the per-shard settle lock and WAL commit) from wire
// transport.
func startBenchShardMesh(b *testing.B, n int) (*shard.Ring, map[string]*central.Server) {
	b.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		// Ring positions only — never dialed.
		addrs[i] = fmt.Sprintf("10.255.0.%d:9", i+1)
	}
	ring := shard.New(addrs)
	byAddr := make(map[string]*central.Server, n)
	for _, addr := range addrs {
		store, err := db.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		s := central.NewWithDB(accounting.Dollars, store)
		s.Ring = ring // a 1-member ring is deliberately unsharded (the baseline)
		s.SelfAddr = addr
		b.Cleanup(func() { s.Close(); store.Close() })
		byAddr[addr] = s
	}
	// Seed the directory the way daemon registration would land it:
	// each name on its owning shard.
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("bench-%02d", i)
		spec := machine.Spec{Name: name, NumPE: 64, MemPerPE: 1024, CPUType: "x86", Speed: 1, CostRate: 0.01}
		owner := byAddr[ring.OwnerServer(name)]
		if err := owner.RegisterDaemon(protocol.ServerInfo{Spec: spec, Apps: []string{"synth"}}); err != nil {
			b.Fatal(err)
		}
	}
	return ring, byAddr
}

// BenchmarkShardedSettleThroughput is what sharding buys settlement: one
// durable settlement per op, called in-process (no auction, no wire),
// against a 1-, 2-, and 4-shard Central Server mesh, with users spread
// across the ring and every request routed to its owning shard. Each
// shard has its own WAL, but settles no longer queue behind one
// another's fsync — one group fsync covers every settle that arrived
// while it ran — so with every shard's WAL on one disk the three read
// alike (DESIGN §16). Reported, not gated.
func BenchmarkShardedSettleThroughput(b *testing.B) {
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards_%d", n), func(b *testing.B) {
			ring, byAddr := startBenchShardMesh(b, n)
			// Bucket a user population by owning shard so workers can be
			// dealt round-robin across shards: with thousands of real
			// users the ring's load is even by the law of large numbers,
			// and the deal reproduces that balance with few workers.
			buckets := make(map[string][]string)
			for i := 0; i < 256; i++ {
				u := fmt.Sprintf("u%03d", i)
				owner := ring.OwnerUser(u)
				buckets[owner] = append(buckets[owner], u)
			}
			addrs := ring.Addrs()
			// Each worker is one user's client: after the first
			// NOT_OWNER redirect a real client sticks to its home
			// shard, so the load arrives as per-shard streams, not a
			// per-request scatter. Workers are oversubscribed so every
			// shard's settle queue stays non-empty.
			b.SetParallelism(16)
			var workers, jobs atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				w := int(workers.Add(1)) - 1
				home := addrs[w%len(addrs)]
				user := buckets[home][(w/len(addrs))%len(buckets[home])]
				s := byAddr[home]
				for pb.Next() {
					err := s.Settle(protocol.SettleReq{
						JobID: fmt.Sprintf("bench-%d", jobs.Add(1)), User: user,
						App: "synth", Server: "bench-00", MinPE: 2, MaxPE: 8,
						Price: 0.001, CPUSeconds: 1, HomeCluster: "home",
					})
					if err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "settles/s")
		})
	}
}

// BenchmarkWALGroupCommit measures durable mutations under contention:
// every parallel worker's record must be fsync'd before its call
// returns, so the ns/op is the per-record share of a group fsync. The
// CI gate guards it with a loose tolerance (fsync times vary across
// runners) to catch a regression to one-fsync-per-record.
func BenchmarkWALGroupCommit(b *testing.B) {
	store, err := db.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			store.AddCredits("bench", 1)
		}
	})
}
