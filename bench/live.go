package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"faucets/internal/bidding"
	"faucets/internal/client"
	"faucets/internal/db"
	"faucets/internal/grid"
	"faucets/internal/machine"
	"faucets/internal/shard"
	"faucets/internal/telemetry"
)

const (
	benchApp      = "synth"
	benchPassword = "pw"
)

// gridSpec is what one live workload boots.
type gridSpec struct {
	clusters []grid.ClusterSpec
	users    []string // accounts created at boot
	sessions int      // client sessions opened after boot
	shards   int      // Central Server shards (0 or 1 = one server)
	durable  bool     // Central Server and daemons journal to disk
}

// fleet builds n Compute Servers. Cost rates climb by index and every
// daemon prices by utilization, so placements spread with load instead
// of piling onto the one cheapest server. Heterogeneous fleets also vary
// size and speed. The fleet is fixed, not seeded: -seed changes the jobs,
// never the grid they run on.
func fleet(n, pe int, heterogeneous bool) []grid.ClusterSpec {
	sizes := []int{64, 96, 128, 192, 256}
	out := make([]grid.ClusterSpec, n)
	for i := range out {
		sp := machine.Spec{
			Name: fmt.Sprintf("cs-%02d", i), NumPE: pe, MemPerPE: 2048, CPUType: "x86",
			Speed: 1, CostRate: 0.010 + 0.001*float64(i),
		}
		if heterogeneous {
			sp.NumPE = sizes[i%len(sizes)]
			sp.Speed = 0.8 + 0.05*float64(i)
		}
		out[i] = grid.ClusterSpec{Spec: sp, Apps: []string{benchApp}, Bidder: bidding.NewUtilization()}
	}
	return out
}

func userNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("user-%02d", i)
	}
	return out
}

// liveGrid is a booted grid with its logged-in sessions.
type liveGrid struct {
	g         *grid.Grid
	spec      gridSpec
	sessions  []*client.Client
	clientReg *telemetry.Registry // the sessions' connection-pool metrics
	stateDir  string
}

// bootGrid starts the real TCP grid in-process under the workloads'
// shared conditions — loopback, no injected delay, binary codec by
// negotiation, no liveness polling, first-price, no group-commit window,
// fsync on — logs the sessions in, and waits on the readiness barrier.
func bootGrid(gs gridSpec, dir string) (*liveGrid, error) {
	users := map[string]string{}
	for _, u := range gs.users {
		users[u] = benchPassword
	}
	opts := grid.Options{
		Users:     users,
		TimeScale: timeScale,
		Shards:    gs.shards,
		// With polling off a daemon stays in the directory only through
		// its re-register heartbeat; the default 30 s equals the
		// directory's dead-after and a traced run outlasts it.
		ReRegister: 5 * time.Second,
	}
	if gs.durable {
		opts.StateDir = dir
	}
	g, err := grid.Start(gs.clusters, opts)
	if err != nil {
		return nil, fmt.Errorf("boot grid: %w", err)
	}
	lg := &liveGrid{g: g, spec: gs, clientReg: telemetry.NewRegistry(), stateDir: opts.StateDir}
	for _, u := range lg.sessionUsers() {
		c, err := g.Login(u, benchPassword)
		if err != nil {
			lg.close()
			return nil, fmt.Errorf("login %s: %w", u, err)
		}
		// Count the session's RPCs from outside, through the pool's own
		// observer hook (set before the first pooled call builds the pool).
		c.PoolObs = telemetry.NewPoolMetrics(lg.clientReg, "client")
		lg.sessions = append(lg.sessions, c)
	}
	if err := lg.awaitReady(10 * time.Second); err != nil {
		lg.close()
		return nil, err
	}
	return lg, nil
}

// sessionUsers picks the account behind each session. On a sharded grid
// session i is homed on shard i: the first account the ring assigns there.
func (lg *liveGrid) sessionUsers() []string {
	gs := lg.spec
	if gs.shards <= 1 {
		return gs.users[:gs.sessions]
	}
	ring := shard.New(lg.g.ShardAddrs)
	var out []string
	for _, addr := range lg.g.ShardAddrs {
		for _, u := range gs.users {
			if ring.OwnerUser(u) == addr {
				out = append(out, u)
				break
			}
		}
	}
	return out
}

// awaitReady is the readiness barrier: every session's directory read
// must list every daemon. On a sharded grid that takes until the first
// gossip digest lands; placing before then answers "no matching compute
// servers". The wait is part of set-up time.
func (lg *liveGrid) awaitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, c := range lg.sessions {
		for {
			servers, err := c.ListServers(nil)
			if err == nil && len(servers) == len(lg.g.Daemons) {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("readiness: session %s sees %d of %d daemons (err %v)", c.User, len(servers), len(lg.g.Daemons), err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

// registries lists every component registry the bench scrapes.
func (lg *liveGrid) registries() []*telemetry.Registry {
	regs := []*telemetry.Registry{lg.clientReg}
	if len(lg.g.Shards) > 0 {
		for _, s := range lg.g.Shards {
			regs = append(regs, s.Metrics)
		}
	} else {
		regs = append(regs, lg.g.Central.Metrics)
	}
	for _, d := range lg.g.Daemons {
		regs = append(regs, d.Metrics())
	}
	return regs
}

// centralDirs lists the Central Server state directories (one per shard).
func (lg *liveGrid) centralDirs() []string {
	if lg.stateDir == "" {
		return nil
	}
	if lg.spec.shards > 1 {
		var out []string
		for i := 0; i < lg.spec.shards; i++ {
			out = append(out, filepath.Join(lg.stateDir, fmt.Sprintf("central-%d", i)))
		}
		return out
	}
	return []string{filepath.Join(lg.stateDir, "central")}
}

func (lg *liveGrid) walFiles() []string {
	var out []string
	for _, d := range lg.centralDirs() {
		out = append(out, filepath.Join(d, "wal.jsonl"))
	}
	return out
}

func (lg *liveGrid) snapshot() snapshot { return takeSnapshot(lg.registries(), lg.walFiles()) }

// close stops every session and component and waits for them.
func (lg *liveGrid) close() {
	for _, c := range lg.sessions {
		c.Close()
	}
	lg.sessions = nil
	lg.g.Close()
}

// setupLive sets the grid up several times (see setupDone), running gen —
// the input generation — inside each timed round, and keeps the last
// grid. It returns the median round time: one boot is a few milliseconds,
// too short to compare between commits from a single sample.
func setupLive(cfg *runCfg, gs gridSpec, gen func()) (*liveGrid, float64, error) {
	var times samples
	began := time.Now()
	for r := 0; ; r++ {
		dir := filepath.Join(cfg.dir, fmt.Sprintf("setup-%d", r))
		start := time.Now()
		gen()
		lg, err := bootGrid(gs, dir)
		if err != nil {
			return nil, 0, err
		}
		times.addSince(start, time.Now(), time.Second)
		if setupDone(len(times), time.Since(began)) {
			return lg, times.pct(50), nil
		}
		lg.close()
		closeCentralDBs(lg)
		_ = os.RemoveAll(dir) // scratch; the run's directory is removed at exit anyway
	}
}

// setupDone decides when set-up has been repeated enough: at least
// setupRounds times, and until setupBudget has been spent on it (so quick
// set-ups are sampled more), but never more than setupMaxRounds times.
func setupDone(rounds int, spent time.Duration) bool {
	return rounds >= setupMaxRounds || (rounds >= setupRounds && spent >= setupBudget)
}

// closeCentralDBs releases the WAL files of a closed grid.
func closeCentralDBs(lg *liveGrid) {
	if len(lg.g.Shards) > 0 {
		for _, s := range lg.g.Shards {
			_ = s.DB.Close() // a failed final sync changes nothing the checks read
		}
		return
	}
	_ = lg.g.Central.DB.Close()
}

// ledger is the bench's own record of every settlement it caused: job ID
// to price, from warm-up to the last probe. Verification compares the
// grid's books against it.
type ledger struct {
	mu          sync.Mutex
	price       map[string]float64
	redelivered int
}

func newLedger() *ledger { return &ledger{price: map[string]float64{}} }

func (l *ledger) add(jobID string, price float64) {
	l.mu.Lock()
	l.price[jobID] = price
	l.mu.Unlock()
}

func (l *ledger) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.price)
}

func (l *ledger) total() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	// Sum in ID order so the result does not depend on map iteration.
	ids := make([]string, 0, len(l.price))
	for id := range l.price {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	sum := 0.0
	for _, id := range ids {
		sum += l.price[id]
	}
	return sum
}

// check is one verification outcome.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func checkf(name string, ok bool, format string, args ...any) check {
	return check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)}
}

// drain waits until every settlement in the ledger is on the Central
// Server's books and the daemons' outboxes are empty.
func (lg *liveGrid) drain(led *ledger, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if lg.g.HistoryLen() >= led.len() && lg.outboxTotal() == 0 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (lg *liveGrid) outboxTotal() int {
	n := 0
	for _, d := range lg.g.Daemons {
		n += d.OutboxLen()
	}
	return n
}

// verifyBooks checks the running grid against the ledger: every job the
// bench saw settle is on the books exactly once, the settled counter
// agrees, money is conserved between what was awarded and what the
// Compute Servers earned, and nothing is stuck or was dropped.
func (lg *liveGrid) verifyBooks(led *ledger) []check {
	var out []check
	want := led.len()
	seen := map[string]int{}
	dups, strangers := 0, 0
	for _, c := range lg.g.Contracts(math.MaxInt32) {
		seen[c.JobID]++
		if seen[c.JobID] == 2 {
			dups++
		}
	}
	led.mu.Lock()
	missing := 0
	for id := range led.price {
		if seen[id] == 0 {
			missing++
		}
	}
	for id := range seen {
		if _, ok := led.price[id]; !ok {
			strangers++
		}
	}
	led.mu.Unlock()
	out = append(out, checkf("settled-exactly-once", dups == 0 && missing == 0 && strangers == 0,
		"%d contracts on the books for %d ledger jobs: %d duplicated, %d missing, %d unknown", len(seen), want, dups, missing, strangers))

	series := scrape(lg.registries())
	settled := seriesSum(series, "faucets_central_jobs_settled_total")
	out = append(out, checkf("settled-counter", int(settled) == want,
		"faucets_central_jobs_settled_total=%d, ledger=%d", int(settled), want))
	retries := seriesSum(series, "faucets_central_settle_retries_total")
	out = append(out, checkf("redeliveries-acked-once", int(retries) == led.redelivered,
		"faucets_central_settle_retries_total=%d, deliberate redeliveries=%d", int(retries), led.redelivered))

	revenue := 0.0
	for _, d := range lg.g.Daemons {
		revenue += lg.g.Revenue(d.Name())
	}
	paid := led.total()
	out = append(out, checkf("money-conserved", math.Abs(revenue-paid) <= 1e-6*math.Max(1, paid),
		"contract prices sum to %.6f, server revenue to %.6f", paid, revenue))

	poison := seriesSum(series, "faucets_daemon_outbox_poison_total")
	out = append(out, checkf("outboxes-empty", lg.outboxTotal() == 0 && poison == 0,
		"%d settlements queued, %d dropped as poison", lg.outboxTotal(), int(poison)))
	return out
}

// verifyRecovery runs after the grid is closed: a fresh database opened
// on a copy of each Central Server state directory — the bytes written so
// far, with no clean shutdown — must hold every acknowledged settlement.
func (lg *liveGrid) verifyRecovery(led *ledger, scratch string) check {
	const name = "recovery-holds-every-ack"
	dirs := lg.centralDirs()
	if len(dirs) == 0 {
		return checkf(name, true, "in-memory Central Server: nothing to recover")
	}
	var stores []*db.DB
	for i, dir := range dirs {
		copyDir := filepath.Join(scratch, fmt.Sprintf("recover-%d", i))
		if err := copyFiles(dir, copyDir); err != nil {
			return checkf(name, false, "copy %s: %v", dir, err)
		}
		store, err := db.Open(copyDir)
		if err != nil {
			return checkf(name, false, "open %s: %v", copyDir, err)
		}
		defer store.Close()
		stores = append(stores, store)
	}
	led.mu.Lock()
	defer led.mu.Unlock()
	lost := 0
	for id := range led.price {
		found := false
		for _, s := range stores {
			if s.Settled(id) {
				found = true
				break
			}
		}
		if !found {
			lost++
		}
	}
	return checkf(name, lost == 0, "%d of %d acknowledged settlements missing after recovery", lost, len(led.price))
}

// copyFiles copies the regular files of src into a fresh dst.
func copyFiles(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		blob, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), blob, 0o644); err != nil {
			return err
		}
	}
	return nil
}
