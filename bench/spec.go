package main

import "time"

// Workload names. Later issues cite these, so they do not change.
const (
	wTripSteady  = "trip-steady"
	wTripSharded = "trip-sharded"
	wAuctionWide = "auction-wide"
	wSettleFleet = "settle-fleet"
	wSimSweep    = "sim-sweep"
)

// workloadDef names one workload and why it exists; BENCHMARK.json and
// README.md carry the same text.
type workloadDef struct {
	Name string
	Why  string
	run  func(*runCfg) (*workloadResult, error)
	// unbound keeps the workload out of BENCHMARK.json: the bench runs and
	// verifies it like the rest, but the driver does not hold later changes
	// to its numbers.
	unbound bool
}

var workloads = []workloadDef{
	{Name: wTripSteady, Why: "open loop 300 jobs/s, one durable Central Server: every layer of a full trip, under the knee, so the layers add up", run: runTripSteady},
	{Name: wTripSharded, Why: "same trips over a 3-shard mesh: prices the NOT_OWNER redirect, gossip directory and forwarded settlements", run: runTripSharded},
	{Name: wAuctionWide, Why: "closed loop Place against 16 daemons: codec, pool, market and daemon bid path do the work, db none", run: runAuctionWide},
	// settle-fleet's timings are the disk's: every settlement is one fsync,
	// and this sandbox's fsync speed wanders by 25% and more between runs of
	// one commit — wider than any bound the driver allows.
	{Name: wSettleFleet, Why: "closed loop, 8 serial settle streams to one durable Central Server: central, accounting and WAL fsync only", run: runSettleFleet, unbound: true},
	{Name: wSimSweep, Why: "flash-crowd replayed through gridsim over consecutive seeds: schedulers and bidders only, no socket", run: runSimSweep},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runSeconds is the measured window BENCHMARK.json asks the driver for,
// and the default of -seconds.
const runSeconds = 20

// The live workloads' measurement conditions, fixed here so that every
// run of every commit uses the same ones.
const (
	tripRate     = 300  // open-loop jobs per second
	tripDaemons  = 6    // Compute Servers on the trip workloads
	tripPE       = 256  // processors per trip daemon
	wideDaemons  = 16   // Compute Servers on auction-wide
	fleetStreams = 8    // settle-fleet outbox streams
	fleetUsers   = 64   // settle-fleet paying users
	redeliverPct = 1    // settle-fleet deliberate redeliveries, percent
	shardCount   = 3    // Central Server shards on trip-sharded
	timeScale    = 1000 // virtual seconds per wall second
	// sweepDuration is the virtual length of one sim-sweep replay. The
	// flash-crowd spec's own 600 s gives ~350 jobs; 5000 s gives ~1.7k
	// jobs in ~65 ms here, so a ten-second window holds enough replays
	// for a p90.
	sweepDuration = 5000
	// sweepPinned is how many leading seeds feed deadline_miss_rate and
	// utilization, so those means do not depend on how many replays fit
	// in the window.
	sweepPinned = 16

	// warmup is the discarded warm-up before the first measured window.
	warmup = 2 * time.Second

	// latencyLimitMs is the trip latency limit: a slower trip is failed.
	latencyLimitMs = 50
	// settleWait is how long after its finish event a job may go without
	// a settle event before it is failed.
	settleWaitS = 5
	// Each workload sets up at least setupRounds times, and on until
	// setupBudget is spent or setupMaxRounds is reached; ready_s is the
	// median round, because one grid boot is a few milliseconds, too short
	// to time steadily.
	setupRounds    = 5
	setupMaxRounds = 25
	setupBudget    = 300 * time.Millisecond
)

// metricDef describes one end-to-end metric: its unit, which direction is
// better, and the bound by which it may worsen before -compare (and the
// driver, for those in BENCHMARK.json) calls it a regression. Abs is an
// absolute slack added to the relative bound, for metrics near zero.
type metricDef struct {
	Name      string
	Unit      string
	Better    string // "lower" or "higher"
	Bound     float64
	Abs       float64
	Workloads []string // nil = all five
}

var (
	tripWorkloads = []string{wTripSteady, wTripSharded}
	liveWorkloads = []string{wTripSteady, wTripSharded, wAuctionWide, wSettleFleet}
)

// endToEnd lists every end-to-end metric. The first four are defined on
// all five workloads and are the ones BENCHMARK.json binds; the rest are
// defined where the table says and are bound by -compare.
var endToEnd = []metricDef{
	// everything a run pays before its window opens: one set-up (ready_s)
	// plus the 2 s warm-up. ready_s alone is 2–9 ms on four workloads and
	// its median moved 48% between two sets of ten runs of one commit.
	{"setup_s", "s", "lower", 0.25, 0.05, nil},
	// verified completions per second; on the closed loops, a good one-second slice's
	{"jobs_per_s", "1/s", "higher", 0.25, 0, nil},
	// a good one-second slice's median of the workload's headline latency: trip on trip-*, time-to-contract on auction-wide, settle round trip on settle-fleet, one replay on sim-sweep
	{"latency_p50_ms", "ms", "lower", 0.25, 0, nil},
	// MemStats.TotalAlloc delta / completions, over the whole window
	{"alloc_kb_per_job", "KiB", "lower", 0.05, 0, nil},
	// one set-up: input generation, grid boot, logins, readiness barrier
	// (median of 5 to 25 rounds)
	{"ready_s", "s", "lower", 0.25, 0.05, nil},
	// process user+sys CPU / completions: a good slice's on the closed
	// loops, the whole window's on the open ones. Not bound in
	// BENCHMARK.json: on trip-* two sets of ten runs of one commit, twenty
	// minutes apart, had medians 36% apart.
	{"cpu_ms_per_job", "ms", "lower", 0.25, 0, nil},
	// a good slice's p90 of the headline latency. Not bound in
	// BENCHMARK.json: on one commit it spread 27% between runs while the
	// host's speed drifted, past any bound the driver allows.
	{"latency_p90_ms", "ms", "lower", 0.25, 0, nil},
	// failed / attempted: a job that errors, is shed, or shows no settle event within 5 s of finishing
	{"fail_ratio", "ratio", "lower", 0, 0.001, nil},
	// trips slower than the 50 ms latency limit / attempted
	{"over_limit_ratio", "ratio", "lower", 0, 0.02, tripWorkloads},
	// due instant -> Place returns a committed contract, over every sample of the window
	{"ttc_p50_ms", "ms", "lower", 0.25, 0, []string{wTripSteady, wTripSharded, wAuctionWide}},
	// p90 of the same
	{"ttc_p90_ms", "ms", "lower", 0.25, 0, []string{wTripSteady, wTripSharded, wAuctionWide}},
	// due instant -> settle event (payment durably acked), over every sample
	{"trip_p50_ms", "ms", "lower", 0.25, 0, tripWorkloads},
	// p90 of the same
	{"trip_p90_ms", "ms", "lower", 0.25, 0, tripWorkloads},
	// finish event -> settle event; on settle-fleet one SettleReq round trip; over every sample
	{"settle_lag_p50_ms", "ms", "lower", 0.5, 0, []string{wTripSteady, wTripSharded, wSettleFleet}},
	// p90 of the same
	{"settle_lag_p90_ms", "ms", "lower", 0.5, 0, []string{wTripSteady, wTripSharded, wSettleFleet}},
	// heap in use after forced GC, end minus start of window, / completions
	{"retained_kb_per_job", "KiB", "lower", 0.25, 0.05, liveWorkloads},
	// mean over the first 16 seeds' reports; exact per -seed
	{"deadline_miss_rate", "ratio", "lower", 0, 1e-12, []string{wSimSweep}},
	// mean fleet busy-PE fraction over the first 16 seeds' reports; exact per -seed
	{"utilization", "ratio", "higher", 0, 1e-12, []string{wSimSweep}},
}

// driverMetrics is how many leading entries of endToEnd BENCHMARK.json
// lists: the ones every workload defines and that are never zero.
const driverMetrics = 4

func (m metricDef) appliesTo(workload string) bool {
	if m.Workloads == nil {
		return true
	}
	for _, w := range m.Workloads {
		if w == workload {
			return true
		}
	}
	return false
}

// layerDef is one per-layer metric. Every workload reports every one of
// them; a metric reads 0 where its layer does no work on that workload.
type layerDef struct {
	Name   string
	Unit   string
	Better string
}

var perLayer = []layerDef{
	{"client.place_p50_us", "us", "lower"},
	{"client.start_p50_us", "us", "lower"},
	{"client.login_p50_us", "us", "lower"},
	{"client.trip_p99_ms", "ms", "lower"},
	{"client.ttc_p99_ms", "ms", "lower"},
	{"client.submit_lag_max_ms", "ms", "lower"},
	{"client.inflight_max", "count", "lower"},

	{"protocol.encode_bidreq_ns", "ns", "lower"},
	{"protocol.decode_bidreq_ns", "ns", "lower"},
	{"protocol.frame_bytes_bidreq", "count", "lower"},
	{"protocol.call_rtt_p50_us", "us", "lower"},
	{"protocol.rpcs_per_job", "count", "lower"},
	{"protocol.redials_per_kjob", "count", "lower"},
	{"protocol.pool_open_conns", "count", "lower"},

	{"market.solicit_p50_us", "us", "lower"},
	{"market.commit_p50_us", "us", "lower"},
	{"market.solicit_mem16_p50_us", "us", "lower"},
	{"market.bids_per_auction", "count", "higher"},
	{"market.commit_attempts_per_job", "count", "lower"},

	{"daemon.bid_rtt_p50_us", "us", "lower"},
	{"daemon.commit_rtt_p50_us", "us", "lower"},
	{"daemon.submit_rtt_p50_us", "us", "lower"},
	{"daemon.run_wait_p50_ms", "ms", "lower"},
	{"daemon.bids_declined_ratio", "ratio", "lower"},
	{"daemon.verify_cache_hit_ratio", "ratio", "higher"},
	{"daemon.journal_append_p50_us", "us", "lower"},
	{"daemon.outbox_depth_max", "count", "lower"},

	{"bidding.make_ns", "ns", "lower"},
	{"scheduler.submit_finish_ns", "ns", "lower"},
	{"scheduler.estimate_ns", "ns", "lower"},
	{"gantt.find_window_ns", "ns", "lower"},
	{"machine.alloc_release_ns", "ns", "lower"},

	{"central.list_servers_rtt_p50_us", "us", "lower"},
	{"central.servers_ns", "ns", "lower"},
	{"central.verify_rtt_p50_us", "us", "lower"},
	{"central.settle_wire_p50_us", "us", "lower"},
	{"central.settle_inproc_p50_us", "us", "lower"},
	{"central.weather_ns", "ns", "lower"},
	{"central.shed_total", "count", "lower"},
	{"central.settle_retries_total", "count", "lower"},
	{"central.not_owner_per_job", "count", "lower"},
	{"central.forwarded_settles_per_job", "count", "lower"},
	{"central.gossip_msgs_per_s", "1/s", "lower"},

	{"db.commit_p50_us", "us", "lower"},
	{"db.commit_conc8_per_s", "1/s", "higher"},
	{"db.fsyncs_per_settle", "count", "lower"},
	{"db.group_batch_mean", "count", "higher"},
	{"db.wal_bytes_per_settle", "count", "lower"},
	{"accounting.settle_mem_ns", "ns", "lower"},
	{"auth.verify_ns", "ns", "lower"},

	{"shard.owner_ns", "ns", "lower"},

	{"gridsim.replay_p50_ms", "ms", "lower"},
	{"gridsim.jobs_per_replay", "count", "higher"},
	{"sim.event_churn_ns", "ns", "lower"},
	{"workload.generate_ms", "ms", "lower"},

	{"grid.peak_rss_mb", "MiB", "lower"},
	{"grid.gc_pause_total_ms", "ms", "lower"},
	{"grid.goroutines_end", "count", "lower"},
	{"grid.tracing_overhead_pct", "%", "lower"},
	{"grid.trip_attributed_pct", "%", "higher"},
}
