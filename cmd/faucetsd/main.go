// Command faucetsd runs a Faucets Daemon — one per Compute Server
// (paper §2). It registers with the Central Server, answers bid
// requests through its local scheduler and bid generator, runs
// committed jobs under the synthetic application model, streams
// telemetry to AppSpector, and settles finished jobs.
//
// Usage:
//
//	faucetsd -listen :9200 -central host:9100 -appspector host:9300 \
//	         -name turing -pe 128 -scheduler equipartition -bidder utilization
package main

import (
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"faucets/internal/bidding"
	"faucets/internal/daemon"
	"faucets/internal/machine"
	"faucets/internal/protocol"
	"faucets/internal/scheduler"
	"faucets/internal/telemetry"
)

func main() {
	listen := flag.String("listen", ":9200", "address to listen on")
	centralAddr := flag.String("central", "", "Faucets Central Server address (empty = standalone)")
	asAddr := flag.String("appspector", "", "AppSpector address (empty = no monitoring)")
	name := flag.String("name", "cluster", "Compute Server name")
	pe := flag.Int("pe", 64, "number of processors")
	mem := flag.Int("mem", 2048, "memory per processor, MB")
	cpuType := flag.String("cpu", "x86", "CPU type advertised in the directory")
	speed := flag.Float64("speed", 1.0, "speed factor relative to the reference machine")
	cost := flag.Float64("cost", 0.01, "normalized cost, $ per CPU-second")
	apps := flag.String("apps", "synth", "comma-separated exported Known Applications")
	sched := flag.String("scheduler", "equipartition", "fcfs, backfill, equipartition, profit")
	bidder := flag.String("bidder", "baseline", "baseline, utilization, weather, or history")
	home := flag.String("home", "", "bartering home cluster (defaults to -name)")
	timeScale := flag.Float64("timescale", 1.0, "virtual seconds per wall second")
	rpcTimeout := flag.Duration("rpc-timeout", 5*time.Second, "deadline for each outbound RPC round trip")
	settleRetry := flag.Duration("settle-retry", time.Second, "redelivery cadence for unacknowledged settlements")
	stateDir := flag.String("state-dir", "", "durable state directory: admitted jobs and the settlement outbox are journaled, and a restarted daemon resumes them")
	reconfig := flag.Float64("reconfig-latency", 5.0, "adaptive-job reconfiguration stall, seconds")
	lookahead := flag.Float64("lookahead", 3600, "profit scheduler admission lookahead, seconds")
	preempt := flag.Bool("preempt", false, "profit scheduler: checkpoint low-payoff jobs for high-payoff arrivals (§4.1/§5.5.4)")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus metrics at this address under /metrics, job traces under /trace (empty = off)")
	verifyCache := flag.Duration("verify-cache", daemon.DefaultVerifyCacheTTL, "how long a verified user token is trusted without re-asking the Central Server (negative disables the cache)")
	breakerThreshold := flag.Float64("breaker-threshold", 0, "circuit-breaker suspicion score that opens the breaker on an unresponsive peer address (0 = breakers off)")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "how long an open breaker waits before half-open probing (0 = library default)")
	flag.Parse()

	spec := machine.Spec{
		Name: *name, NumPE: *pe, MemPerPE: *mem, CPUType: *cpuType,
		Speed: *speed, CostRate: *cost,
	}
	schedCfg := scheduler.Config{ReconfigLatency: *reconfig, Lookahead: *lookahead, Preempt: *preempt}
	newScheduler, err := scheduler.ByName(strings.ToLower(*sched))
	if err != nil {
		log.Fatalf("-scheduler: %v", err)
	}
	cm := newScheduler(spec, schedCfg)
	gen, err := bidding.ByName(strings.ToLower(*bidder))
	if err != nil {
		log.Fatalf("-bidder: %v", err)
	}

	var appList []string
	for _, a := range strings.Split(*apps, ",") {
		if a = strings.TrimSpace(a); a != "" {
			appList = append(appList, a)
		}
	}
	tracer := telemetry.NewTracer(0)
	d, err := daemon.New(daemon.Config{
		Info:             protocol.ServerInfo{Spec: spec, Apps: appList, Home: *home},
		Scheduler:        cm,
		Bidder:           gen,
		CentralAddr:      *centralAddr,
		AppSpectorAddr:   *asAddr,
		TimeScale:        *timeScale,
		RPCTimeout:       *rpcTimeout,
		SettleRetry:      *settleRetry,
		StateDir:         *stateDir,
		Tracer:           tracer,
		VerifyCacheTTL:   *verifyCache,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
	})
	if err != nil {
		log.Fatalf("daemon: %v", err)
	}
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	if *metricsAddr != "" {
		ml, err := telemetry.Serve(*metricsAddr, d.Metrics(), tracer)
		if err != nil {
			log.Fatalf("metrics: %v", err)
		}
		defer ml.Close()
		log.Printf("faucetsd: metrics on http://%s/metrics", ml.Addr())
	}
	if err := d.Start(l); err != nil {
		log.Fatalf("start: %v", err)
	}
	log.Printf("faucetsd: %s (%d PEs, %s scheduler, %s bidder) on %s",
		*name, *pe, cm.Name(), gen.Name(), l.Addr())

	// Serve until SIGINT/SIGTERM, then stop gracefully: Close severs the
	// listener, makes a final attempt to deliver queued settlements, and
	// compacts the journal so the next boot resumes cleanly.
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	sig := <-ch
	log.Printf("faucetsd: %v: shutting down", sig)
	d.Close()
}
