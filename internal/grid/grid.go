// Package grid boots a complete live Faucets system — Central Server,
// AppSpector, and one Faucets Daemon per Compute Server — on loopback
// listeners. It exists so integration tests and the quickstart example
// can exercise the real wire protocol end to end (paper Fig 1) without
// external processes.
package grid

import (
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"faucets/internal/accounting"
	"faucets/internal/appspector"
	"faucets/internal/bidding"
	"faucets/internal/central"
	"faucets/internal/chaos"
	"faucets/internal/client"
	"faucets/internal/daemon"
	"faucets/internal/db"
	"faucets/internal/health"
	"faucets/internal/machine"
	"faucets/internal/protocol"
	"faucets/internal/scheduler"
	"faucets/internal/shard"
	"faucets/internal/telemetry"
)

// ClusterSpec describes one Compute Server to boot.
type ClusterSpec struct {
	Spec machine.Spec
	// Apps this cluster exports as Known Applications (§2.2).
	Apps []string
	// NewScheduler defaults to adaptive equipartition.
	NewScheduler func(machine.Spec, scheduler.Config) scheduler.Scheduler
	// Bidder defaults to the baseline strategy.
	Bidder bidding.Generator
	// Home is the bartering cluster; defaults to Spec.Name.
	Home string
	// Chaos, when set, additionally wraps THIS cluster's listener with
	// its own fault injector — the way soak tests make a minority of
	// daemons sick (slow-loris, stalled) while the rest of the grid and
	// any grid-wide Options.Chaos schedule stay healthy.
	Chaos *chaos.Injector
}

// Options configures the whole grid.
type Options struct {
	// Mode is the economic context; default Dollars.
	Mode accounting.Mode
	// TimeScale compresses virtual time (default 1000: one wall
	// millisecond per virtual second) so tests finish quickly.
	TimeScale float64
	// Users maps userid → password accounts to create.
	Users map[string]string
	// Homes maps userid → home cluster for bartering.
	Homes map[string]string
	// SchedCfg is shared scheduler configuration.
	SchedCfg scheduler.Config
	// PollInterval enables the FS registry refresh loop when > 0.
	PollInterval time.Duration
	// RPCTimeout bounds every wire round trip (FS polls, FD
	// register/verify/settle); zero uses protocol defaults.
	RPCTimeout time.Duration
	// SettleRetry is the daemons' settlement-outbox redelivery cadence.
	SettleRetry time.Duration
	// BidTimeout is the clients' per-bid deadline: a hung daemon
	// forfeits its bid instead of stalling the auction (the in-process
	// -bid-timeout; zero = none).
	BidTimeout time.Duration
	// ReRegister is the daemons' Central Server heartbeat cadence, so a
	// restarted FS rebuilds its directory quickly in tests.
	ReRegister time.Duration
	// StateDir makes the grid durable: the Central Server journals under
	// <StateDir>/central and each daemon under <StateDir>/fd-<name>, and
	// RestartCentral/RestartDaemon recover from those directories.
	StateDir string
	// Chaos, when set, wraps every component listener so all grid
	// traffic passes through the fault injector.
	Chaos *chaos.Injector
	// Metrics opens a loopback /metrics endpoint per component (the
	// in-process equivalent of each daemon's -metrics-addr flag); read
	// the addresses back with MetricsAddr.
	Metrics bool
	// MaxInflight is the Central Server's admission-control budget (the
	// in-process -max-inflight; zero = admission off).
	MaxInflight int
	// BreakerThreshold/BreakerCooldown configure circuit breakers on
	// every client's bid fan-out (zero threshold = breakers off).
	BreakerThreshold float64
	BreakerCooldown  time.Duration
	// Mechanism is the market mechanism clients place jobs under (a
	// qos.Mechanism* name; empty = first-price). Also advertised by the
	// Central Server as the grid default (the in-process -mechanism).
	Mechanism string
	// Shards boots the Central Server as a consistent-hash mesh of this
	// many cooperating shards (internal/shard): users and server names
	// partition across them, daemons register with their owning shard,
	// and shards pull each other's liveness/weather digests. 0 or 1
	// keeps the singleton Central Server, byte-identical to before.
	Shards int
	// GossipInterval is how often each shard pulls its peers' digests
	// (zero = central.DefaultGossipInterval). Only meaningful with
	// Shards > 1.
	GossipInterval time.Duration
}

// Grid is a running loopback Faucets deployment.
type Grid struct {
	Central        *central.Server
	CentralAddr    string
	AppSpector     *appspector.Server
	AppSpectorAddr string
	Daemons        []*daemon.Daemon

	// Shards holds every Central Server shard when Options.Shards > 1,
	// index-aligned with ShardAddrs; Shards[0] == Central. Empty on
	// single-shard grids.
	Shards     []*central.Server
	ShardAddrs []string
	ring       *shard.Ring

	// Tracer is shared by the grid's clients and daemons, so one trace
	// accumulates a job's full submit→settle span chain.
	Tracer *telemetry.Tracer

	// Boot parameters, kept so Restart* can rebuild a component on its
	// original address from its state directory.
	opts        Options
	clusters    []ClusterSpec
	daemonAddrs []string

	// mu guards the component pointers above against concurrent reads
	// from the metrics endpoints while Restart* swaps a component.
	mu           sync.Mutex
	metricsLns   []net.Listener
	metricsAddrs map[string]string
}

// Start boots the system: FS first, then AS, then every FD (which
// registers itself with the FS, as in the paper).
func Start(clusters []ClusterSpec, opts Options) (*Grid, error) {
	if len(clusters) == 0 {
		return nil, fmt.Errorf("grid: no clusters")
	}
	if opts.TimeScale <= 0 {
		opts.TimeScale = 1000
	}
	g := &Grid{
		opts:         opts,
		clusters:     clusters,
		Tracer:       telemetry.NewTracer(0),
		metricsAddrs: map[string]string{},
	}

	if opts.Shards > 1 {
		if err := g.startShards(opts.Shards); err != nil {
			g.Close()
			return nil, err
		}
	} else {
		fs, err := g.newCentral()
		if err != nil {
			return nil, err
		}
		g.Central = fs
		fsl, err := g.listen("")
		if err != nil {
			return nil, err
		}
		g.CentralAddr = fsl.Addr().String()
		go g.Central.Serve(fsl)
		if opts.PollInterval > 0 {
			g.Central.StartPolling(opts.PollInterval)
		}
		if err := g.serveMetrics("central", func() *telemetry.Registry { return g.Central.Metrics }); err != nil {
			g.Close()
			return nil, err
		}
	}

	g.AppSpector = appspector.NewServer(g.verifyToken)
	asl, err := g.listen("")
	if err != nil {
		g.Close()
		return nil, err
	}
	g.AppSpectorAddr = asl.Addr().String()
	go g.AppSpector.Serve(asl)
	if err := g.serveMetrics("appspector", func() *telemetry.Registry { return g.AppSpector.Metrics }); err != nil {
		g.Close()
		return nil, err
	}

	for i := range clusters {
		d, addr, err := g.startDaemon(i, "")
		if err != nil {
			g.Close()
			return nil, err
		}
		g.Daemons = append(g.Daemons, d)
		g.daemonAddrs = append(g.daemonAddrs, addr)
		idx := i
		if err := g.serveMetrics("fd-"+clusters[i].Spec.Name, func() *telemetry.Registry {
			return g.Daemons[idx].Metrics()
		}); err != nil {
			g.Close()
			return nil, err
		}
	}
	g.gossipRound()
	return g, nil
}

// gossipRound has every shard pull its peers' digests once. Daemon
// registration is synchronous, so after a round every shard lists the
// whole fleet: the grid is ready when Start or RestartShard returns, not
// one gossip interval later. A no-op on a single Central Server.
func (g *Grid) gossipRound() {
	for _, fs := range g.shardList() {
		fs.GossipOnce()
	}
}

// serveMetrics opens a loopback /metrics + /trace endpoint for one
// component when Options.Metrics is on. The registry is resolved through
// regFn on every request, so a component replaced by RestartCentral or
// RestartDaemon is scraped through the same endpoint — no stale registry
// behind a surviving listener.
func (g *Grid) serveMetrics(name string, regFn func() *telemetry.Registry) error {
	if !g.opts.Metrics {
		return nil
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("grid: metrics listener: %w", err)
	}
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		g.mu.Lock()
		reg := regFn()
		g.mu.Unlock()
		telemetry.Handler(reg, g.Tracer).ServeHTTP(w, r)
	})
	go func() { _ = http.Serve(l, h) }()
	g.mu.Lock()
	g.metricsLns = append(g.metricsLns, l)
	g.metricsAddrs[name] = l.Addr().String()
	g.mu.Unlock()
	return nil
}

// MetricsAddr returns the scrape address of a component's /metrics
// endpoint ("central", "appspector", or "fd-<cluster>"); "" when
// Options.Metrics was off or the name is unknown.
func (g *Grid) MetricsAddr(name string) string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.metricsAddrs[name]
}

// listen opens a loopback listener (addr "" picks a free port; a
// concrete addr rebinds a restarting component's old port, retrying
// briefly while the dying listener's socket drains). Wrapped with the
// fault injector when chaos is on.
func (g *Grid) listen(addr string) (net.Listener, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var l net.Listener
	var err error
	deadline := time.Now().Add(5 * time.Second)
	for {
		l, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("grid: relisten %s: %w", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if g.opts.Chaos != nil {
		l = g.opts.Chaos.WrapListener(l)
	}
	return l, nil
}

// startShards boots Options.Shards Central Servers as one consistent-
// hash mesh. Listeners are opened first so the ring can be built from
// real addresses; then each shard comes up already knowing the full
// membership (its peers are the rest of the ring) and the gossip loop
// running. Daemons registered later are routed to the shard that
// owns their name, so each daemon is polled by exactly one shard.
func (g *Grid) startShards(n int) error {
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		l, err := g.listen("")
		if err != nil {
			for _, prev := range lns[:i] {
				prev.Close()
			}
			return err
		}
		lns[i] = l
		addrs[i] = l.Addr().String()
	}
	g.ring = shard.New(addrs)
	g.ShardAddrs = addrs
	for i := range lns {
		fs, err := g.newCentralAt(shardStateSub(i), g.ring, addrs[i])
		if err != nil {
			for _, rest := range lns[i:] {
				rest.Close()
			}
			return err
		}
		g.Shards = append(g.Shards, fs)
		go fs.Serve(lns[i])
		if g.opts.PollInterval > 0 {
			fs.StartPolling(g.opts.PollInterval)
		}
		fs.StartGossip()
		name := "central"
		if i > 0 {
			name = fmt.Sprintf("central-%d", i)
		}
		idx := i
		if err := g.serveMetrics(name, func() *telemetry.Registry {
			return g.Shards[idx].Metrics
		}); err != nil {
			return err
		}
	}
	g.Central = g.Shards[0]
	g.CentralAddr = addrs[0]
	return nil
}

// shardStateSub is shard i's state subdirectory. Sharded grids journal
// under central-<i> for every shard (including 0), so a durable
// single-shard grid's plain "central" directory is never mistaken for
// shard state.
func shardStateSub(i int) string {
	return fmt.Sprintf("central-%d", i)
}

// verifyToken resolves an AppSpector bearer token against whichever
// shard issued it. Sessions are shard-local (a client logs in at its
// user's owner), so the sharded grid has to try each shard; unsharded
// grids keep the single-server fast path.
func (g *Grid) verifyToken(token string) (string, error) {
	g.mu.Lock()
	shards := append([]*central.Server(nil), g.Shards...)
	fs := g.Central
	g.mu.Unlock()
	if len(shards) == 0 {
		return fs.Auth.Verify(token)
	}
	var err error
	for _, s := range shards {
		var user string
		if user, err = s.Auth.Verify(token); err == nil {
			return user, nil
		}
	}
	return "", err
}

// centralAddrFor is the Central Server address a daemon should register
// with: its name's ring owner when sharded, else the singleton.
func (g *Grid) centralAddrFor(name string) string {
	if g.ring.Size() > 1 {
		return g.ring.OwnerServer(name)
	}
	return g.CentralAddr
}

// newCentral builds a configured Central Server; with a StateDir it
// recovers from <StateDir>/central (the crash-recovery path).
func (g *Grid) newCentral() (*central.Server, error) {
	return g.newCentralAt("central", nil, "")
}

// newCentralAt builds one Central Server journaling under
// <StateDir>/<stateSub>; a non-nil ring makes it a mesh member with the
// given self address.
func (g *Grid) newCentralAt(stateSub string, ring *shard.Ring, selfAddr string) (*central.Server, error) {
	var fs *central.Server
	if g.opts.StateDir != "" {
		store, err := db.Open(filepath.Join(g.opts.StateDir, stateSub))
		if err != nil {
			return nil, err
		}
		fs = central.NewWithDB(g.opts.Mode, store)
	} else {
		fs = central.New(g.opts.Mode)
	}
	for user, pw := range g.opts.Users {
		if err := fs.Auth.AddUser(user, pw, g.opts.Homes[user]); err != nil {
			return nil, err
		}
	}
	if g.opts.RPCTimeout > 0 {
		fs.PollTimeout = g.opts.RPCTimeout
		fs.RPCTimeout = g.opts.RPCTimeout
	}
	fs.MaxInflight = g.opts.MaxInflight
	fs.DefaultMechanism = g.opts.Mechanism
	if ring != nil {
		fs.Ring = ring
		fs.SelfAddr = selfAddr
		fs.GossipInterval = g.opts.GossipInterval
	}
	return fs, nil
}

// startDaemon builds and starts the i-th cluster's daemon; addr "" picks
// a fresh port, otherwise the daemon resumes on its previous address
// (and, with a StateDir, from its journal).
func (g *Grid) startDaemon(i int, addr string) (*daemon.Daemon, string, error) {
	cl := g.clusters[i]
	factory := cl.NewScheduler
	if factory == nil {
		factory = func(sp machine.Spec, c scheduler.Config) scheduler.Scheduler {
			return scheduler.NewEquipartition(sp, c)
		}
	}
	stateDir := ""
	if g.opts.StateDir != "" {
		stateDir = filepath.Join(g.opts.StateDir, "fd-"+cl.Spec.Name)
	}
	d, err := daemon.New(daemon.Config{
		Info:           protocol.ServerInfo{Spec: cl.Spec, Apps: cl.Apps, Home: cl.Home},
		Scheduler:      factory(cl.Spec, g.opts.SchedCfg),
		Bidder:         cl.Bidder,
		CentralAddr:    g.centralAddrFor(cl.Spec.Name),
		AppSpectorAddr: g.AppSpectorAddr,
		TimeScale:      g.opts.TimeScale,
		RPCTimeout:     g.opts.RPCTimeout,
		SettleRetry:    g.opts.SettleRetry,
		ReRegister:     g.opts.ReRegister,
		StateDir:       stateDir,
		Tracer:         g.Tracer,
	})
	if err != nil {
		return nil, "", err
	}
	dl, err := g.listen(addr)
	if err != nil {
		return nil, "", err
	}
	if cl.Chaos != nil {
		dl = cl.Chaos.WrapListener(dl)
	}
	if err := d.Start(dl); err != nil {
		dl.Close()
		return nil, "", err
	}
	return d, dl.Addr().String(), nil
}

// RestartCentral crash-stops the Central Server and boots a replacement
// on the same address from the same state directory: the database
// recovers via snapshot + WAL replay, and daemons repopulate the
// directory through their re-register heartbeat. Requires a StateDir
// (otherwise the replacement would forget every account).
func (g *Grid) RestartCentral() error {
	if g.opts.StateDir == "" {
		return fmt.Errorf("grid: RestartCentral needs Options.StateDir")
	}
	g.Central.Close()
	if err := g.Central.DB.Close(); err != nil {
		return err
	}
	fs, err := g.newCentral()
	if err != nil {
		return err
	}
	l, err := g.listen(g.CentralAddr)
	if err != nil {
		return err
	}
	g.mu.Lock()
	g.Central = fs
	g.mu.Unlock()
	go fs.Serve(l)
	if g.opts.PollInterval > 0 {
		fs.StartPolling(g.opts.PollInterval)
	}
	return nil
}

// RestartShard crash-stops one mesh shard and boots a replacement on
// the same ring address from the same state directory. The replacement
// rejoins with the identical ring (ownership never moves), its WAL
// replay restores accounting and settled history, daemons repopulate
// its directory via re-register heartbeats, and it has pulled its peers'
// digests (and they its) by the time this returns. Requires a StateDir,
// like RestartCentral.
func (g *Grid) RestartShard(i int) error {
	if g.opts.StateDir == "" {
		return fmt.Errorf("grid: RestartShard needs Options.StateDir")
	}
	if i < 0 || i >= len(g.Shards) {
		return fmt.Errorf("grid: no shard %d", i)
	}
	old := g.Shards[i]
	old.Close()
	if err := old.DB.Close(); err != nil {
		return err
	}
	fs, err := g.newCentralAt(shardStateSub(i), g.ring, g.ShardAddrs[i])
	if err != nil {
		return err
	}
	l, err := g.listen(g.ShardAddrs[i])
	if err != nil {
		return err
	}
	g.mu.Lock()
	g.Shards[i] = fs
	if i == 0 {
		g.Central = fs
	}
	g.mu.Unlock()
	go fs.Serve(l)
	if g.opts.PollInterval > 0 {
		fs.StartPolling(g.opts.PollInterval)
	}
	fs.StartGossip()
	g.gossipRound()
	return nil
}

// KillShard crash-stops one mesh shard without replacing it, for tests
// that need a window where the shard is simply gone.
func (g *Grid) KillShard(i int) error {
	if i < 0 || i >= len(g.Shards) {
		return fmt.Errorf("grid: no shard %d", i)
	}
	g.Shards[i].Close()
	return g.Shards[i].DB.Close()
}

// shardList is the set of control-plane servers to aggregate reads
// over: every mesh shard, or just the singleton Central Server.
func (g *Grid) shardList() []*central.Server {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.Shards) > 0 {
		return append([]*central.Server(nil), g.Shards...)
	}
	return []*central.Server{g.Central}
}

// HistoryLen is the grid-wide settled-contract count: the sum over all
// shards' databases (each settlement lands on exactly one shard — the
// paying user's owner — so the sum counts each contract once).
func (g *Grid) HistoryLen() int {
	n := 0
	for _, s := range g.shardList() {
		n += s.DB.HistoryLen()
	}
	return n
}

// Revenue is a Compute Server's settled revenue summed across shards.
// A server's settlements are keyed by the paying user, so on a sharded
// grid they scatter over every user-owning shard.
func (g *Grid) Revenue(server string) float64 {
	v := 0.0
	for _, s := range g.shardList() {
		v += s.DB.Revenue(server)
	}
	return v
}

// Contracts returns up to limit settled contracts per shard, merged.
// Cross-shard ordering is not meaningful; callers key by JobID.
func (g *Grid) Contracts(limit int) []db.ContractRecord {
	var out []db.ContractRecord
	for _, s := range g.shardList() {
		out = append(out, s.DB.RecentContracts(nil, limit)...)
	}
	return out
}

// RestartDaemon crash-stops the named daemon and boots a replacement on
// the same address; with a StateDir the replacement recovers its jobs
// and settlement outbox from the journal.
func (g *Grid) RestartDaemon(name string) error {
	for i, d := range g.Daemons {
		if d.Name() != name {
			continue
		}
		d.Close()
		nd, addr, err := g.startDaemon(i, g.daemonAddrs[i])
		if err != nil {
			return err
		}
		g.mu.Lock()
		g.Daemons[i] = nd
		g.daemonAddrs[i] = addr
		g.mu.Unlock()
		return nil
	}
	return fmt.Errorf("grid: no daemon named %q", name)
}

// Login opens an authenticated client session against this grid.
func (g *Grid) Login(user, password string) (*client.Client, error) {
	c, err := client.Login(g.CentralAddr, user, password)
	if err != nil {
		return nil, err
	}
	c.AppSpectorAddr = g.AppSpectorAddr
	c.Tracer = g.Tracer
	c.BidTimeout = g.opts.BidTimeout
	c.RPCTimeout = g.opts.RPCTimeout
	c.Mechanism = g.opts.Mechanism
	if g.opts.BreakerThreshold > 0 {
		c.Breakers = health.NewSet(health.Options{
			Threshold: g.opts.BreakerThreshold,
			Cooldown:  g.opts.BreakerCooldown,
		})
	}
	// Clients share the Central Server's registry, so the auction
	// fan-out histogram lands next to the rest of the grid's metrics.
	c.Metrics = g.Central.Metrics
	return c, nil
}

// Close shuts every component down (daemons first so their settlement
// calls still find the Central Server).
func (g *Grid) Close() {
	for _, d := range g.Daemons {
		d.Close()
	}
	if g.AppSpector != nil {
		g.AppSpector.Close()
	}
	if len(g.Shards) > 0 {
		for _, s := range g.Shards {
			s.Close()
		}
	} else if g.Central != nil {
		g.Central.Close()
	}
	g.mu.Lock()
	lns := g.metricsLns
	g.metricsLns = nil
	g.mu.Unlock()
	for _, l := range lns {
		l.Close()
	}
}
