// Package central implements the Faucets Central Server (FS), the heart
// of the system (paper §2): it maintains the list of available Compute
// Servers and refreshes it by periodically polling the corresponding
// Faucets Daemons, keeps the list of applications clients can run,
// authenticates the users of the system, stores the directory of Compute
// Servers (max processors, memory, CPU type, FD address), answers the
// daemons' credential re-verification requests (§2.2), applies the
// static and dynamic matching filters of §5.1, keeps the contract
// history that §5.2.1 promises bid generators, and runs the credit
// ledger for the bartering context (§5.5.3).
package central

import (
	"errors"
	"fmt"
	"log"
	"net"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"faucets/internal/accounting"
	"faucets/internal/auth"
	"faucets/internal/bidding"
	"faucets/internal/db"
	"faucets/internal/health"
	"faucets/internal/protocol"
	"faucets/internal/qos"
	"faucets/internal/shard"
	"faucets/internal/telemetry"
	"faucets/internal/weather"
)

// regEntry is one registered Faucets Daemon.
type regEntry struct {
	info     protocol.ServerInfo
	lastSeen time.Time
	alive    bool
	dyn      protocol.PollOK
}

// srvMetrics holds the Central Server's pre-resolved instruments, so
// hot paths record with plain atomic updates.
type srvMetrics struct {
	registrations *telemetry.Counter   // daemon register/refresh calls
	bidsSolicited *telemetry.Counter   // filtered directory reads (bid solicitations, §5.1)
	contracts     *telemetry.Counter   // contract rows appended at settlement
	settled       *telemetry.Counter   // jobs settled (first delivery)
	settleRetries *telemetry.Counter   // duplicate redeliveries re-acknowledged
	settleErrors  *telemetry.Counter   // settlements refused
	pollFanout    *telemetry.Histogram // whole-directory poll refresh latency
	snapshotLat   *telemetry.Histogram // WAL compaction latency
	daemonsAlive  *telemetry.Gauge
	daemonsTotal  *telemetry.Gauge
	shedInflight  *telemetry.Counter // admission rejections: in-flight budget exhausted
	shedDeadline  *telemetry.Counter // admission rejections: hard deadline already unmeetable
	probeSkips    *telemetry.Counter // liveness probes skipped on an OPEN breaker
	gossipSent    *telemetry.Counter // digests served to pulling peers
	gossipRecv    *telemetry.Counter // digests pulled from peers and cached
	notOwner      *telemetry.Counter // requests refused with a NOT_OWNER redirect
	fwdSettles    *telemetry.Counter // settlements forwarded to the owning shard
}

func newSrvMetrics(reg *telemetry.Registry) *srvMetrics {
	return &srvMetrics{
		registrations: reg.Counter("faucets_central_registrations_total", "Daemon directory registrations and heartbeat refreshes."),
		bidsSolicited: reg.Counter("faucets_central_bid_solicitations_total", "Filtered server-list requests — each is one client soliciting bids (§5.1)."),
		contracts:     reg.Counter("faucets_central_contracts_awarded_total", "Contract-history rows appended at settlement (§5.2.1)."),
		settled:       reg.Counter("faucets_central_jobs_settled_total", "Jobs settled exactly once (duplicates excluded)."),
		settleRetries: reg.Counter("faucets_central_settle_retries_total", "Duplicate settlement redeliveries re-acknowledged without charging."),
		settleErrors:  reg.Counter("faucets_central_settle_errors_total", "Settlements refused with an error."),
		pollFanout:    reg.Histogram("faucets_central_poll_fanout_seconds", "Latency of one whole-directory liveness refresh (PollOnce).", nil),
		snapshotLat:   reg.Histogram("faucets_central_snapshot_seconds", "Latency of one WAL compaction into an atomic snapshot.", nil),
		daemonsAlive:  reg.Gauge("faucets_central_daemons_alive", "Directory entries currently considered alive."),
		daemonsTotal:  reg.Gauge("faucets_central_daemons_registered", "Directory entries, alive or not."),
		shedInflight:  reg.Counter("faucets_central_shed_total", "Requests shed by admission control.", telemetry.L("reason", "inflight")),
		shedDeadline:  reg.Counter("faucets_central_shed_total", "Requests shed by admission control.", telemetry.L("reason", "deadline")),
		probeSkips:    reg.Counter("faucets_central_probe_breaker_skips_total", "Liveness probes skipped because the daemon's circuit breaker was open."),
		gossipSent:    reg.Counter("faucets_central_gossip_sent_total", "Liveness/weather digests served to peer Central Servers."),
		gossipRecv:    reg.Counter("faucets_central_gossip_received_total", "Liveness/weather digests pulled from peer Central Servers and cached."),
		notOwner:      reg.Counter("faucets_central_not_owner_total", "Requests refused with a NOT_OWNER shard redirect."),
		fwdSettles:    reg.Counter("faucets_central_forwarded_settles_total", "Settlements forwarded one hop to the user-owning shard."),
	}
}

// Server is the Faucets Central Server.
type Server struct {
	Auth *auth.Authenticator
	DB   *db.DB
	Acct *accounting.Accountant

	// Metrics is this server's registry, served at -metrics-addr; every
	// instrument below is registered here.
	Metrics *telemetry.Registry
	met     *srvMetrics
	rpc     *telemetry.RPCMetrics

	// mu guards the registry, which is kept in server-name order — the
	// order every listing is served in — so the directory read is one
	// pass and no sort. Reader/writer split: the read-heavy paths
	// (Servers, Apps, Weather's fleet scan, PollOnce's target snapshot)
	// take the read side, so they stop serializing against each other
	// and against concurrent bid solicitations during a poll.
	mu       sync.RWMutex
	registry []*regEntry
	peers    []string

	// settleMu serializes settlement application so the settled-check,
	// billing, and history append act as one atomic step per job ID.
	settleMu sync.Mutex
	// dirtySettles (under settleMu) tracks job IDs settled in memory
	// whose WAL group commit failed: their acknowledgment is withheld
	// (the daemon keeps redelivering) until a Compact folds the
	// in-memory state into a durable snapshot.
	dirtySettles map[string]bool

	// wagg incrementally mirrors the settled-contract window, so a
	// weather report costs O(1) instead of rescanning history.
	wagg *weather.Aggregate
	// WeatherTTL bounds how stale a cached weather report may be served
	// (zero = DefaultWeatherTTL). Settlements invalidate the cache
	// immediately, so the TTL only covers fleet-state drift between
	// polls.
	WeatherTTL time.Duration
	weatherMu  sync.Mutex
	weatherAt  time.Time
	weatherOK  bool
	weatherRep weather.Report

	// srv owns the listener and the client and daemon connections;
	// closed and wg cover the pollers, gossip and snapshot loops.
	srv    *protocol.Server
	wg     sync.WaitGroup
	closed chan struct{}

	// DeadAfter is how long a daemon may go unpolled/unseen before the
	// directory marks it unavailable.
	DeadAfter time.Duration
	// Dial is the poller's connection factory (overridable in tests).
	Dial func(addr string) (net.Conn, error)
	// PollTimeout bounds each liveness probe's round trip, so a daemon
	// that accepts connections but never answers costs the poller at
	// most this long instead of hanging the refresh forever.
	PollTimeout time.Duration
	// RPCTimeout bounds federation calls to peer Central Servers.
	RPCTimeout time.Duration

	// DefaultMechanism is the grid's default market mechanism, one of
	// the qos.Mechanism* names. It is advertised to clients at login
	// (AuthOK.Mechanism); clients without an explicit -mechanism adopt
	// it. Empty means first-price.
	DefaultMechanism string

	// Ring and SelfAddr make this server one shard of a consistent-hash
	// Central Server mesh (see shardmesh.go): the ring partitions users
	// and server names, SelfAddr is this shard's ring identity. With
	// Ring unset (or a single-member ring) the server owns every key.
	Ring     *shard.Ring
	SelfAddr string
	// GossipInterval is how often each peer's digest is pulled (zero =
	// DefaultGossipInterval); a digest is served until it is five
	// intervals old (see federation.go).
	GossipInterval time.Duration
	remoteMu       sync.Mutex
	remotes        map[string]remoteDigest // by dialed peer address

	// MaxInflight caps concurrently admitted auction and settlement
	// requests. Past the cap, admission control sheds the request with a
	// retryable OVERLOADED error instead of queueing it without bound;
	// settlements ride a priority lane a quarter wider than the base
	// budget so money is booked even while auctions are shed. Zero
	// disables admission control (the default).
	MaxInflight int
	inflight    atomic.Int64

	// BreakerThreshold enables per-daemon circuit breakers on the
	// liveness poller: probe failures accrue suspicion, and once it
	// crosses the threshold the daemon's probes are skipped (instant
	// forfeit, no dial) until BreakerCooldown passes and a half-open
	// probe succeeds. Zero disables the breakers (the default).
	BreakerThreshold float64
	BreakerCooldown  time.Duration
	probeOnce        sync.Once
	probes           *health.Set

	peerOnce sync.Once
	peerPool *protocol.Pool

	pollPoolOnce sync.Once
	pollPool     *protocol.Pool
}

// probeBreakers lazily builds the per-daemon breaker set for the
// liveness poller. Returns nil when breakers are disabled — a nil
// health.Set allows every probe and records nothing.
func (s *Server) probeBreakers() *health.Set {
	s.probeOnce.Do(func() {
		if s.BreakerThreshold > 0 {
			s.probes = health.NewSet(health.Options{
				Threshold: s.BreakerThreshold,
				Cooldown:  s.BreakerCooldown,
			})
		}
	})
	return s.probes
}

// peerRPC lazily builds the pool carrying federation calls to peer
// Central Servers. It dials through s.Dial so tests that substitute the
// poller's connection factory also steer peer traffic.
func (s *Server) peerRPC() *protocol.Pool {
	s.peerOnce.Do(func() {
		s.peerPool = &protocol.Pool{
			Obs:     s.rpc,
			PoolObs: telemetry.NewPoolMetrics(s.Metrics, "central"),
			Retry:   protocol.Retry{Attempts: 2, Base: 50 * time.Millisecond, Max: 500 * time.Millisecond, Stop: s.closed},
			DialFunc: func(addr string, _ time.Duration) (net.Conn, error) {
				return s.Dial(addr)
			},
		}
	})
	return s.peerPool
}

// pollRPC lazily builds the pool carrying liveness probes to daemons.
// Probes used to pay a fresh dial (and its timer) per daemon per tick;
// a persistent connection makes the steady-state probe one pipelined
// round trip. One connection per daemon is plenty for a probe cadence.
func (s *Server) pollRPC() *protocol.Pool {
	s.pollPoolOnce.Do(func() {
		s.pollPool = &protocol.Pool{
			Size:  1,
			Obs:   s.rpc,
			Retry: protocol.Retry{Attempts: 2, Base: 25 * time.Millisecond, Max: 200 * time.Millisecond, Stop: s.closed},
			DialFunc: func(addr string, _ time.Duration) (net.Conn, error) {
				return s.Dial(addr)
			},
		}
	})
	return s.pollPool
}

// New returns a Central Server in the given economic mode.
func New(mode accounting.Mode) *Server {
	return NewWithDB(mode, db.New())
}

// NewWithDB returns a Central Server backed by an existing database —
// used to resume from a durable state directory (db.Open).
func NewWithDB(mode accounting.Mode, store *db.DB) *Server {
	reg := telemetry.NewRegistry()
	store.Instrument(reg)
	wagg := weather.NewAggregate()
	// Recover the price window from history: RecentContracts is newest
	// first, the aggregate wants arrival order.
	recs := store.RecentContracts(nil, weather.Window)
	for i, j := 0, len(recs)-1; i < j; i, j = i+1, j-1 {
		recs[i], recs[j] = recs[j], recs[i]
	}
	wagg.Seed(recs)
	s := &Server{
		Auth:         auth.New(24 * time.Hour),
		DB:           store,
		Acct:         accounting.New(mode, store),
		Metrics:      reg,
		met:          newSrvMetrics(reg),
		rpc:          telemetry.NewRPCMetrics(reg, "central"),
		dirtySettles: map[string]bool{},
		remotes:      map[string]remoteDigest{},
		wagg:         wagg,
		closed:       make(chan struct{}),
		DeadAfter:    30 * time.Second,
		Dial: func(addr string) (net.Conn, error) {
			return protocol.Dial(addr, 5*time.Second)
		},
		PollTimeout: 3 * time.Second,
		RPCTimeout:  protocol.DefaultCallTimeout,
	}
	// Each handled request is observed into the per-type RPC latency and
	// error instruments, so a scrape shows what the server spends time on.
	s.srv = protocol.NewServer("central", s.dispatch, s.rpc)
	return s
}

// RegisterDaemon records (or refreshes) a daemon's directory entry.
func (s *Server) RegisterDaemon(info protocol.ServerInfo) error {
	if err := info.Spec.Validate(); err != nil {
		return fmt.Errorf("central: register: %w", err)
	}
	if info.Home == "" {
		info.Home = info.Spec.Name
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	i, found := s.find(info.Spec.Name)
	if !found {
		s.registry = slices.Insert(s.registry, i, nil)
	}
	s.registry[i] = &regEntry{info: info, lastSeen: time.Now(), alive: true}
	s.met.registrations.Inc()
	s.gaugeDirectoryLocked()
	s.invalidateWeather()
	return nil
}

// find returns the registry index of the named daemon, or where it
// would be inserted; caller holds s.mu.
func (s *Server) find(name string) (int, bool) {
	return slices.BinarySearchFunc(s.registry, name, func(e *regEntry, name string) int {
		return strings.Compare(e.info.Spec.Name, name)
	})
}

// gaugeDirectoryLocked refreshes the directory-size gauges; caller holds
// s.mu. The alive gauge reflects the state as of the last directory
// mutation or poll (staleness between events is applied on read paths).
func (s *Server) gaugeDirectoryLocked() {
	now := time.Now()
	alive := 0
	for _, e := range s.registry {
		if e.alive && now.Sub(e.lastSeen) <= s.DeadAfter {
			alive++
		}
	}
	s.met.daemonsAlive.Set(float64(alive))
	s.met.daemonsTotal.Set(float64(len(s.registry)))
}

// Deregister removes a daemon from the directory.
func (s *Server) Deregister(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, found := s.find(name); found {
		s.registry = slices.Delete(s.registry, i, i+1)
	}
	s.gaugeDirectoryLocked()
	s.invalidateWeather()
}

// MarkSeen refreshes a daemon's liveness with fresh dynamic state.
func (s *Server) MarkSeen(name string, dyn protocol.PollOK) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, found := s.find(name); found {
		e := s.registry[i]
		e.lastSeen = time.Now()
		e.alive = true
		e.dyn = dyn
	}
	s.gaugeDirectoryLocked()
	s.invalidateWeather()
}

// MarkDead flags a daemon as unavailable (poll failure).
func (s *Server) MarkDead(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, found := s.find(name); found {
		s.registry[i].alive = false
	}
	s.gaugeDirectoryLocked()
	s.invalidateWeather()
}

// Servers returns directory entries matching the contract, applying the
// §5.1 filters: static properties (processor count, per-PE memory,
// exported applications) and dynamic properties (daemon liveness). A nil
// contract lists every live server. The listing is in name order.
func (s *Server) Servers(c *qos.Contract) []protocol.ServerInfo {
	return s.appendServers([]protocol.ServerInfo{}, c)
}

// appendServers is Servers appending to out, which it grows at most once.
func (s *Server) appendServers(out []protocol.ServerInfo, c *qos.Contract) []protocol.ServerInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	now := time.Now()
	out = slices.Grow(out, len(s.registry))
	for _, e := range s.registry {
		if !e.alive || now.Sub(e.lastSeen) > s.DeadAfter {
			continue
		}
		if c != nil && !e.info.Matches(c) {
			continue
		}
		info := e.info
		// Publish the latest polled weather so posted-price buyers can
		// derive each server's commodity post from the listing alone.
		info.UsedPE = e.dyn.UsedPE
		out = append(out, info)
	}
	return out
}

// Apps returns the union of applications exported by live servers — the
// "Known Applications" catalogue of §2.2. The same liveness predicate
// as Servers applies: a daemon that stopped answering polls must not
// keep exporting applications indefinitely.
func (s *Server) Apps() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	now := time.Now()
	set := map[string]struct{}{}
	for _, e := range s.registry {
		if !e.alive || now.Sub(e.lastSeen) > s.DeadAfter {
			continue
		}
		for _, a := range e.info.Apps {
			set[a] = struct{}{}
		}
	}
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Settle books a finished job: billing (and bartering transfer) plus the
// contract history used by §5.2.1 bid generators. The daemon holds no
// accounting information (§2.2), so the user's home cluster is resolved
// here when the request leaves it blank.
//
// Settlement is idempotent by job ID: daemons redeliver from a durable
// outbox until acknowledged, so the same settlement may arrive twice
// (the classic lost-ack after a crash on either side). A duplicate is
// acknowledged without charging anything again. On a durable database
// the whole settlement — billing mutation, settled-mark, contract row —
// lands as one atomic WAL record, so a Central Server crash mid-settle
// either keeps all of it or none and the daemon's redelivery repairs
// the rest.
func (s *Server) Settle(req protocol.SettleReq) error {
	s.settleMu.Lock()
	defer s.settleMu.Unlock()
	if s.DB.Settled(req.JobID) {
		if s.dirtySettles[req.JobID] {
			// Settled in memory but its WAL group commit failed, so the
			// ack was withheld and the daemon redelivered. Repair by
			// compacting: the snapshot is written from memory, which
			// already holds the full settlement.
			if err := s.compactTimed(); err != nil {
				s.met.settleErrors.Inc()
				return protocol.MarkRetryable(fmt.Errorf("central: settle %s: durability: %w", req.JobID, err))
			}
			s.dirtySettles = map[string]bool{} // snapshot covers everything
		}
		s.met.settleRetries.Inc()
		return nil // duplicate redelivery: re-acknowledge, apply nothing
	}
	if req.HomeCluster == "" {
		req.HomeCluster = s.Auth.HomeCluster(req.User)
	}
	s.DB.BeginBatch()
	if err := s.Acct.Settle(req.JobID, req.User, req.HomeCluster, req.Server, req.Price); err != nil {
		s.met.settleErrors.Inc()
		s.DB.CommitBatch() // flush whatever the failed attempt staged
		return err
	}
	s.DB.MarkSettled(req.JobID)
	mult := bidding.MultiplierOf(req.Price, req.CPUSeconds, s.costRateOf(req.Server))
	s.DB.AppendContract(db.ContractRecord{
		Time: float64(time.Now().UnixNano()) / 1e9, JobID: req.JobID,
		App: req.App, Server: req.Server, MinPE: req.MinPE, MaxPE: req.MaxPE,
		Price: req.Price, Multiplier: mult,
	})
	if err := s.DB.CommitBatch(); err != nil {
		// Applied in memory but not confirmed on disk. Withhold the ack
		// (retryable, so the daemon's outbox redelivers) and remember
		// the job as dirty; the redelivery path above repairs
		// durability via a snapshot.
		s.dirtySettles[req.JobID] = true
		s.met.settleErrors.Inc()
		return protocol.MarkRetryable(fmt.Errorf("central: settle %s: durability: %w", req.JobID, err))
	}
	s.wagg.Add(req.MaxPE, mult)
	s.invalidateWeather()
	s.met.settled.Inc()
	s.met.contracts.Inc()
	return nil
}

// costRateOf returns the named Compute Server's normalized cost rate, the
// factor that turns a settled price back into the multiplier it was bid
// at: from the registry (alive or not — a spec does not die with a missed
// poll), else from the last digest of any peer that listed the name,
// however old. Zero when this server has never been told of the name.
func (s *Server) costRateOf(name string) float64 {
	s.mu.RLock()
	if i, found := s.find(name); found {
		rate := s.registry[i].info.Spec.CostRate
		s.mu.RUnlock()
		return rate
	}
	s.mu.RUnlock()
	s.remoteMu.Lock()
	defer s.remoteMu.Unlock()
	for _, d := range s.remotes {
		if i, found := slices.BinarySearchFunc(d.servers, name, compareName); found {
			return d.servers[i].Spec.CostRate
		}
	}
	return 0
}

// DefaultWeatherTTL is how long a cached weather report is served
// before the fleet state is rescanned.
const DefaultWeatherTTL = 250 * time.Millisecond

// Weather serves the grid-weather report of §5.2.1. The contract-price
// statistics come from the incrementally maintained aggregate (updated
// at each settlement) and the fleet scan is cached for WeatherTTL, so a
// burst of weather requests costs one O(fleet) pass instead of a full
// history rescan each. Settlements and registry events (register,
// poll result, death) invalidate the cache immediately, so a report
// never misses a settled contract and the TTL only bounds drift from
// pure time passage (a daemon silently crossing the staleness
// threshold).
func (s *Server) Weather() weather.Report {
	ttl := s.WeatherTTL
	if ttl <= 0 {
		ttl = DefaultWeatherTTL
	}
	now := time.Now()
	s.weatherMu.Lock()
	if s.weatherOK && now.Sub(s.weatherAt) <= ttl {
		r := s.weatherRep
		s.weatherMu.Unlock()
		return r
	}
	s.weatherMu.Unlock()

	servers, used, total := s.fleetScan()

	r := weather.Report{Time: float64(now.UnixNano()) / 1e9, Servers: servers, TotalPE: total}
	s.wagg.Fill(&r)
	used += s.mergeRemoteWeather(&r)
	if r.TotalPE > 0 {
		r.GridUtilization = float64(used) / float64(r.TotalPE)
		if r.GridUtilization > 1 {
			r.GridUtilization = 1
		}
	}

	s.weatherMu.Lock()
	s.weatherRep, s.weatherAt, s.weatherOK = r, now, true
	s.weatherMu.Unlock()
	return r
}

// fleetScan counts the live local fleet: entries, busy PEs, total PEs.
func (s *Server) fleetScan() (servers, used, total int) {
	now := time.Now()
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, e := range s.registry {
		if !e.alive || now.Sub(e.lastSeen) > s.DeadAfter {
			continue
		}
		servers++
		used += e.dyn.UsedPE
		total += e.info.Spec.NumPE
	}
	return servers, used, total
}

// invalidateWeather drops the cached report so the next request
// reflects the state that just changed.
func (s *Server) invalidateWeather() {
	s.weatherMu.Lock()
	s.weatherOK = false
	s.weatherMu.Unlock()
}

// pollConcurrency bounds how many daemons are probed at once; the fan-out
// keeps one dead host from delaying everyone else's liveness refresh.
const pollConcurrency = 32

// PollOnce probes every registered daemon and updates liveness; it
// returns how many daemons answered. Probes fan out with bounded
// concurrency and a per-call deadline, so one dead or hung host delays
// the whole refresh by at most one timeout instead of stalling the
// sequential walk for everyone behind it.
func (s *Server) PollOnce() int {
	start := time.Now()
	defer func() { s.met.pollFanout.Observe(time.Since(start).Seconds()) }()
	s.mu.RLock()
	targets := make(map[string]string, len(s.registry))
	for _, e := range s.registry {
		targets[e.info.Spec.Name] = e.info.Addr
	}
	timeout := s.PollTimeout
	s.mu.RUnlock()
	sem := make(chan struct{}, pollConcurrency)
	brk := s.probeBreakers()
	var wg sync.WaitGroup
	var alive atomic.Int64
	for name, addr := range targets {
		wg.Add(1)
		go func(name, addr string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if !brk.Allow(addr) {
				// OPEN breaker: skip the dial entirely. The entry is NOT
				// marked dead here — the failures that opened the breaker
				// already did that, and a daemon restarting mid-cooldown
				// re-registers itself alive; the half-open probe after the
				// cooldown confirms or re-opens.
				s.met.probeSkips.Inc()
				return
			}
			probe := time.Now()
			var dyn protocol.PollOK
			err := s.pollRPC().Call(addr, timeout, protocol.TypePollReq, protocol.PollReq{}, protocol.TypePollOK, &dyn)
			brk.Record(addr, time.Since(probe), err)
			if err != nil {
				s.MarkDead(name)
				return
			}
			s.MarkSeen(name, dyn)
			alive.Add(1)
		}(name, addr)
	}
	wg.Wait()
	return int(alive.Load())
}

// StartPolling launches the background refresh loop (paper §2: the FS
// "refreshes the list by periodically polling the corresponding FDs").
func (s *Server) StartPolling(interval time.Duration) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-s.closed:
				return
			case <-ticker.C:
				s.PollOnce()
			}
		}
	}()
}

// StartSnapshots launches the periodic compaction loop on a durable
// database: every interval the WAL is folded into an atomic snapshot so
// recovery replays a short log. A final compaction runs at Close.
func (s *Server) StartSnapshots(interval time.Duration) {
	if !s.DB.Durable() {
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-s.closed:
				if err := s.compactTimed(); err != nil {
					log.Printf("central: final snapshot: %v", err)
				}
				return
			case <-ticker.C:
				if err := s.compactTimed(); err != nil {
					log.Printf("central: snapshot: %v", err)
				}
			}
		}
	}()
}

// compactTimed folds the WAL into a snapshot, recording the latency.
func (s *Server) compactTimed() error {
	start := time.Now()
	err := s.DB.Compact()
	s.met.snapshotLat.Observe(time.Since(start).Seconds())
	return err
}

// Serve accepts client and daemon connections on l until Close.
func (s *Server) Serve(l net.Listener) { s.srv.Serve(l) }

// Close shuts the server down, severing live connections, and waits for
// handlers and pollers.
func (s *Server) Close() {
	select {
	case <-s.closed:
	default:
		close(s.closed)
	}
	// The pools first: a handler blocked in a call to a peer that never
	// answers is ended by closing the pool, and srv.Close waits for
	// handlers.
	s.peerRPC().Close()
	s.pollRPC().Close()
	s.srv.Close()
	s.wg.Wait()
}

// errAuth is the uniform authentication failure sent to clients.
var errAuth = errors.New("central: authentication failed")

// listScratch is what the list_servers_req arm needs only until it has
// replied. The listing's entries alias the registry's (and the gossip
// cache's) Apps, as a fresh listing's do; they are only encoded.
type listScratch struct {
	req   protocol.ListServersReq
	reply protocol.ListServersOK
}

var listScratches = sync.Pool{New: func() any { return new(listScratch) }}

func (s *Server) dispatch(conn *protocol.ReplyConn, f protocol.Frame) error {
	switch f.Type {
	case protocol.TypeAuthReq:
		var req protocol.AuthReq
		if err := protocol.Decode(f, f.Type, &req); err != nil {
			return err
		}
		if !s.ownsUser(req.User) {
			// Sessions and accounting are shard-local: the client must log
			// in at the owning shard, and the redirect tells it where.
			s.met.notOwner.Inc()
			return protocol.MarkNotOwner(errAuth, s.Ring.OwnerUser(req.User))
		}
		token, err := s.Auth.Login(req.User, req.Password)
		if err != nil {
			return errAuth
		}
		ok := protocol.AuthOK{Token: token, Mechanism: s.DefaultMechanism}
		if s.sharded() {
			ok.Shards = s.Ring.Addrs()
		}
		return protocol.WriteFrame(conn, protocol.TypeAuthOK, ok)

	case protocol.TypeListServersReq:
		// One of these opens every placement and nothing of it outlives the
		// reply, so request and listing live in a recycled scratch.
		sc := listScratches.Get().(*listScratch)
		defer listScratches.Put(sc)
		req := &sc.req
		if err := protocol.Decode(f, f.Type, req); err != nil {
			return err
		}
		if _, err := s.Auth.Verify(req.Token); err != nil {
			return errAuth
		}
		if req.Contract != nil {
			if err := req.Contract.Validate(); err != nil {
				return err
			}
			release, err := s.admitAuction(req.Contract)
			if err != nil {
				return err
			}
			defer release()
			// A contract-filtered directory read is the first step of a bid
			// solicitation (§5.1) — the closest thing the Central Server
			// sees to the bids themselves, which flow client↔daemon.
			s.met.bidsSolicited.Inc()
		}
		sc.reply.Servers = s.appendFederated(sc.reply.Servers[:0], req.Contract)
		return protocol.WriteFrame(conn, protocol.TypeListServersOK, &sc.reply)

	case protocol.TypeListAppsReq:
		var req protocol.ListAppsReq
		if err := protocol.Decode(f, f.Type, &req); err != nil {
			return err
		}
		if _, err := s.Auth.Verify(req.Token); err != nil {
			return errAuth
		}
		return protocol.WriteFrame(conn, protocol.TypeListAppsOK, protocol.ListAppsOK{Apps: s.Apps()})

	case protocol.TypeCreditsReq:
		var req protocol.CreditsReq
		if err := protocol.Decode(f, f.Type, &req); err != nil {
			return err
		}
		if _, err := s.Auth.Verify(req.Token); err != nil {
			return errAuth
		}
		return protocol.WriteFrame(conn, protocol.TypeCreditsOK,
			protocol.CreditsOK{Cluster: req.Cluster, Credits: s.DB.Credits(req.Cluster)})

	case protocol.TypeRegisterReq:
		var req protocol.RegisterReq
		if err := protocol.Decode(f, f.Type, &req); err != nil {
			return err
		}
		if !s.ownsServer(req.Info.Spec.Name) {
			// Each daemon registers with (and is polled by) exactly its
			// owning shard — that is what keeps N shards from doing N×
			// polling. The redirect points a mis-configured daemon home.
			s.met.notOwner.Inc()
			return protocol.MarkNotOwner(
				fmt.Errorf("central: server %s belongs to another shard", req.Info.Spec.Name),
				s.Ring.OwnerServer(req.Info.Spec.Name))
		}
		if err := s.RegisterDaemon(req.Info); err != nil {
			return err
		}
		return protocol.WriteFrame(conn, protocol.TypeRegisterOK, protocol.RegisterOK{})

	case protocol.TypeVerifyReq:
		var req protocol.VerifyReq
		if err := protocol.Decode(f, f.Type, &req); err != nil {
			return err
		}
		if err := s.Auth.VerifyUser(req.User, req.Token); err != nil {
			// Federated authentication (§5.1): the user may hold an
			// account on a peer Central Server.
			if !s.verifyViaPeers(req.User, req.Token) {
				return errAuth
			}
		}
		return protocol.WriteFrame(conn, protocol.TypeVerifyOK, protocol.VerifyOK{User: req.User})

	case protocol.TypePeerVerifyReq:
		var req protocol.PeerVerifyReq
		if err := protocol.Decode(f, f.Type, &req); err != nil {
			return err
		}
		// Local store only: peer verification never relays onward.
		if err := s.Auth.VerifyUser(req.User, req.Token); err != nil {
			return errAuth
		}
		return protocol.WriteFrame(conn, protocol.TypeVerifyOK, protocol.VerifyOK{User: req.User})

	case protocol.TypeSettleReq:
		var req protocol.SettleReq
		if err := protocol.Decode(f, f.Type, &req); err != nil {
			return err
		}
		// Settlements ride the priority admission lane: shedding one
		// delays booking money the daemon already earned, so they are
		// only refused when even the widened budget is exhausted (the
		// daemon's durable outbox redelivers on OVERLOADED).
		release, err := s.admitSettle()
		if err != nil {
			return err
		}
		defer release()
		if !s.ownsUser(req.User) {
			// The daemon settled with the shard it registered at, but the
			// money belongs to the user's shard. Forward one hop server-side
			// — daemons stay ring-unaware.
			s.met.fwdSettles.Inc()
			if err := s.forwardSettle(req); err != nil {
				return err
			}
			return protocol.WriteFrame(conn, protocol.TypeSettleOK, protocol.SettleOK{})
		}
		if err := s.Settle(req); err != nil {
			return err
		}
		return protocol.WriteFrame(conn, protocol.TypeSettleOK, protocol.SettleOK{})

	case protocol.TypeForwardSettleReq:
		// A settlement forwarded by a peer shard: settle locally, always.
		// The distinct frame type is the recursion guard — this handler
		// never forwards, so a stale ring on the sender costs one wrong
		// hop at most, never a loop.
		var req protocol.ForwardSettleReq
		if err := protocol.Decode(f, f.Type, &req); err != nil {
			return err
		}
		release, err := s.admitSettle()
		if err != nil {
			return err
		}
		defer release()
		if err := s.Settle(protocol.SettleReq(req)); err != nil {
			return err
		}
		return protocol.WriteFrame(conn, protocol.TypeSettleOK, protocol.SettleOK{})

	case protocol.TypeGossipReq:
		// A peer pulling our digest: answer with LOCAL state only, so
		// gossip never recurses through the peer graph. The request has
		// no fields and its body is never read — nothing a caller sends
		// here is stored.
		// Counted before the write so a puller that has its answer always
		// finds the counter moved.
		s.met.gossipSent.Inc()
		return protocol.WriteFrame(conn, protocol.TypeGossipOK, s.localDigest())

	case protocol.TypeHistoryReq:
		var req protocol.HistoryReq
		if err := protocol.Decode(f, f.Type, &req); err != nil {
			return err
		}
		limit := req.Limit
		if limit <= 0 || limit > 500 {
			limit = 100
		}
		recs := weather.SimilarContracts(s.DB, req.MaxPE, limit)
		out := make([]protocol.HistoryRecord, len(recs))
		for i, r := range recs {
			out[i] = protocol.HistoryRecord{Time: r.Time, App: r.App, MinPE: r.MinPE, MaxPE: r.MaxPE, Multiplier: r.Multiplier}
		}
		return protocol.WriteFrame(conn, protocol.TypeHistoryOK, protocol.HistoryOK{Records: out})

	case protocol.TypeWeatherReq:
		r := s.Weather()
		return protocol.WriteFrame(conn, protocol.TypeWeatherOK, protocol.WeatherOK{
			Time: r.Time, GridUtilization: r.GridUtilization,
			Servers: r.Servers, TotalPE: r.TotalPE, Contracts: r.Contracts,
			MeanMultiplier: r.MeanMultiplier, BucketMultipliers: r.BucketMultipliers,
		})

	default:
		return fmt.Errorf("central: unsupported frame %q", f.Type)
	}
}
