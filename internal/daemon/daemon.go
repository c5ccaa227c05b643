// Package daemon implements the Faucets Daemon (FD), the agent through
// which a Compute Server participates in the Faucets system (paper §2):
// it listens on a well-known port, registers itself with the Faucets
// Central Server at startup, relays bid requests to the local Cluster
// Manager (the scheduler), accepts committed jobs and their input files,
// starts jobs on the scheduler, announces running jobs to the
// AppSpector server, streams their telemetry, and settles finished jobs
// with the Central Server. "In essence, to the external world, FD is the
// representative of the Compute Server to the faucets system."
//
// Job execution is the synthetic application model: a job consumes
// CPU-seconds according to its QoS contract on the processors the
// scheduler assigns, emitting output text and utilization telemetry as
// it progresses. Config.TimeScale compresses virtual seconds into wall
// seconds so integration tests run a "one hour" job in milliseconds.
package daemon

import (
	"errors"
	"fmt"
	"log"
	"math"
	"net"
	"path/filepath"
	"sync"
	"time"

	"faucets/internal/bidding"
	"faucets/internal/health"
	"faucets/internal/job"
	"faucets/internal/protocol"
	"faucets/internal/qos"
	"faucets/internal/scheduler"
	"faucets/internal/stage"
	"faucets/internal/telemetry"
)

// Config assembles a daemon.
type Config struct {
	// Info is the directory entry advertised to the Central Server;
	// Info.Addr is filled from the listener if empty.
	Info protocol.ServerInfo
	// Scheduler is the local Cluster Manager.
	Scheduler scheduler.Scheduler
	// Bidder generates bids; defaults to the baseline strategy.
	Bidder bidding.Generator
	// CentralAddr is the Faucets Central Server ("" = standalone: no
	// registration, verification, or settlement).
	CentralAddr string
	// AppSpectorAddr is the monitoring server ("" = no telemetry).
	AppSpectorAddr string
	// TimeScale is virtual seconds per wall second (default 1).
	TimeScale float64
	// ReRegister is how often the daemon refreshes its Central Server
	// registration (default 30s wall time). A Central Server restart
	// loses its in-memory directory; the heartbeat restores the entry
	// without operator action.
	ReRegister time.Duration
	// RPCTimeout bounds each outbound round trip (register, verify,
	// settle) and each write of the monitor stream; default
	// protocol.DefaultCallTimeout.
	RPCTimeout time.Duration
	// SettleRetry is the wall cadence at which unacknowledged
	// settlements are redelivered from the outbox (default 1s). A
	// briefly-unreachable Central Server must not lose billing records.
	SettleRetry time.Duration
	// StateDir, when set, makes the daemon durable: job admissions and
	// the settlement outbox are journaled there, and New recovers them —
	// unfinished jobs are restarted from zero under their original
	// contract and price, and unacknowledged settlements re-enter the
	// outbox for redelivery. "" = in-memory only.
	StateDir string
	// Metrics receives this daemon's instruments (nil = the daemon owns
	// a private registry; read it back via Daemon.Metrics).
	Metrics *telemetry.Registry
	// Tracer records job-lifecycle span events (nil = tracing off).
	Tracer *telemetry.Tracer
	// VerifyCacheTTL is how long (wall time) a successful credential
	// verification with the Central Server is remembered, so the nested
	// verify RPC is paid once per client burst instead of once per bid.
	// Zero means DefaultVerifyCacheTTL; negative disables the cache.
	// Only positive verifications are cached — a bogus token is
	// re-checked (and re-refused) every time.
	VerifyCacheTTL time.Duration
	// BreakerThreshold enables per-address circuit breakers on the
	// daemon's outbound RPC pool (Central Server): transport
	// failures and pathological latency accrue suspicion, and an OPEN
	// breaker fails calls instantly instead of burning a timeout each.
	// Zero disables the breakers (the default — the outbox's own retry
	// cadence already paces redelivery).
	BreakerThreshold float64
	// BreakerCooldown is how long an OPEN breaker waits before the
	// half-open probe (zero = health.DefaultCooldown).
	BreakerCooldown time.Duration
}

// DefaultVerifyCacheTTL bounds how stale a cached credential check may
// be. Short enough that a revoked session stops bidding within a couple
// of seconds; long enough to cover the bid/commit/submit burst of one
// auction round with a single verify round trip.
const DefaultVerifyCacheTTL = 2 * time.Second

// bidValidity is how long a bid stands, in virtual seconds: a commit that
// arrives later is refused as expired.
const bidValidity = 300

// telemetryFloor is the shortest wall interval between two AppSpector
// sample rounds. Samples are due every virtual second; at a compressed
// TimeScale that would be every wall millisecond or less, which is more
// than a monitor can use.
const telemetryFloor = 5 * time.Millisecond

// monitorBacklog bounds the bytes queued for AppSpector and not yet
// taken by the stream's writer (a few thousand frames); past it frames
// are dropped and counted.
const monitorBacklog = 256 << 10

// verifyKey is one verified credential. A struct of the two strings, not
// their concatenation: looking one up allocates nothing.
type verifyKey struct{ user, token string }

// verifyCacheMax bounds the cache; past it the map is reset wholesale
// (entries expire in seconds anyway, so eviction precision is not worth
// bookkeeping).
const verifyCacheMax = 4096

// reservation is a committed-but-not-yet-submitted contract (phase two
// of §5.3 ahead of file upload).
type reservation struct {
	user     string
	home     string
	contract *qos.Contract
	bid      bidding.Bid
}

// Daemon is a running FD.
type Daemon struct {
	cfg   Config
	epoch time.Time

	mu          sync.Mutex
	jobs        map[string]*job.Job
	owners      map[string]string
	tempUsers   map[string]string
	prices      map[string]float64
	reserved    map[string]*reservation
	outstanding float64
	settledIDs  map[string]bool
	tempSeq     uint64
	// outbox holds settlements the Central Server has not acknowledged
	// yet; runLoop redelivers them until each is acked (or refused).
	outbox []protocol.SettleReq
	// kick wakes runLoop after a change to the scheduler's running set
	// that it did not make itself (submit, kill, recovery), so it
	// re-arms its timer. One pending kick covers any number of changes.
	kick chan struct{}
	// done holds jobs a request handler's catchUp found finished, until
	// runLoop settles them.
	done []*job.Job

	// journal persists admissions and the outbox (nil = in-memory only).
	journal *journal

	met *fdMetrics
	rpc *telemetry.RPCMetrics

	// pool holds the persistent connections for every outbound RPC
	// (register, verify, settle).
	pool *protocol.Pool

	// monitorQ (under mu) is the daemon's one stream to AppSpector:
	// encoded frames in the order they were enqueued, monitorFrames of
	// them, waiting for monitorLoop, which monitorKick wakes.
	monitorQ      []byte
	monitorFrames int
	monitorKick   chan struct{}

	// verifyCache remembers recent successful credential checks:
	// user+token → wall-clock expiry.
	verifyMu    sync.Mutex
	verifyCache map[verifyKey]time.Time

	// centralHome overrides cfg.CentralAddr once a sharded mesh has
	// redirected registration to the shard owning this daemon's name;
	// every later central call (verify, settle, re-register) follows it.
	centralMu   sync.RWMutex
	centralHome string

	Stage *stage.Store

	// srv owns the listener, the client connections and — so that Close
	// severs it too — the outbound monitor stream; closed and wg cover
	// the run, register and monitor loops.
	srv    *protocol.Server
	wg     sync.WaitGroup
	closed chan struct{}
}

// New validates the config and returns a daemon (not yet serving).
func New(cfg Config) (*Daemon, error) {
	if cfg.Scheduler == nil {
		return nil, errors.New("daemon: no scheduler")
	}
	if err := cfg.Info.Spec.Validate(); err != nil {
		return nil, fmt.Errorf("daemon: %w", err)
	}
	if cfg.Bidder == nil {
		cfg.Bidder = bidding.Baseline{}
	}
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = 1
	}
	if cfg.ReRegister <= 0 {
		cfg.ReRegister = 30 * time.Second
	}
	if cfg.RPCTimeout <= 0 {
		cfg.RPCTimeout = protocol.DefaultCallTimeout
	}
	if cfg.SettleRetry <= 0 {
		cfg.SettleRetry = time.Second
	}
	if cfg.Info.Home == "" {
		cfg.Info.Home = cfg.Info.Spec.Name
	}
	if cfg.Metrics == nil {
		cfg.Metrics = telemetry.NewRegistry()
	}
	if cfg.VerifyCacheTTL == 0 {
		cfg.VerifyCacheTTL = DefaultVerifyCacheTTL
	}
	d := &Daemon{
		cfg:         cfg,
		epoch:       time.Now(),
		jobs:        map[string]*job.Job{},
		owners:      map[string]string{},
		tempUsers:   map[string]string{},
		prices:      map[string]float64{},
		reserved:    map[string]*reservation{},
		settledIDs:  map[string]bool{},
		Stage:       stage.NewStore(),
		closed:      make(chan struct{}),
		kick:        make(chan struct{}, 1),
		monitorKick: make(chan struct{}, 1),
		met:         newFDMetrics(cfg.Metrics),
		rpc:         telemetry.NewRPCMetrics(cfg.Metrics, "daemon"),
	}
	// No observer: a bid's path reads no clock for the server's sake.
	d.srv = protocol.NewServer("daemon "+cfg.Info.Spec.Name, d.dispatch, nil)
	if cfg.VerifyCacheTTL > 0 {
		d.verifyCache = map[verifyKey]time.Time{}
	}
	d.pool = &protocol.Pool{
		DialTimeout: cfg.RPCTimeout,
		Obs:         d.rpc,
		PoolObs:     telemetry.NewPoolMetrics(cfg.Metrics, "daemon"),
		// One redial per call: a stale pooled connection (peer
		// restarted, partition healed) is replaced transparently, while
		// a genuinely-down peer fails fast so the outbox keeps the
		// records for the next cycle instead of wedging.
		Retry: protocol.Retry{Attempts: 2, Base: 50 * time.Millisecond, Max: 500 * time.Millisecond, Stop: d.closed},
	}
	if cfg.BreakerThreshold > 0 {
		d.pool.Health = health.NewSet(health.Options{
			Threshold: cfg.BreakerThreshold,
			Cooldown:  cfg.BreakerCooldown,
			OnTransition: func(addr string, from, to health.State) {
				log.Printf("daemon %s: breaker %s: %v -> %v", cfg.Info.Spec.Name, addr, from, to)
			},
		})
	}
	// §5.2.1 global information: a weather or history bidder that came
	// without a source — or with the one a daemon this one replaces
	// installed, whose pool is closed — reads the Central Server.
	switch b := cfg.Bidder.(type) {
	case *bidding.Weather:
		if _, stale := b.Source.(*centralWeather); b.Source == nil || stale {
			if cfg.CentralAddr == "" {
				return nil, errors.New("daemon: the weather bidder needs a Central Server for §5.2.1 grid reports")
			}
			b.Source = &centralWeather{d: d}
		}
	case *bidding.History:
		if _, stale := b.View.(*centralHistory); b.View == nil || stale {
			if cfg.CentralAddr == "" {
				return nil, errors.New("daemon: the history bidder needs a Central Server for §5.2.1 contract history")
			}
			b.View = &centralHistory{d: d}
		}
	}
	if cfg.StateDir != "" {
		if err := d.recover(filepath.Join(cfg.StateDir, "journal.jsonl")); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// recover replays the journal: unfinished jobs restart from zero work
// under their original contract, owner, and agreed price (the synthetic
// application has no intermediate checkpoints to resume from), and
// queued-but-unacknowledged settlements re-enter the outbox. The journal
// is then rewritten compacted to only the live records.
func (d *Daemon) recover(path string) error {
	jnl, recs, err := openJournal(path)
	if err != nil {
		return err
	}
	d.journal = jnl
	st := reduce(recs)
	for _, rec := range st.pending {
		j := job.New(job.ID(rec.JobID), rec.Owner, rec.Contract, 0)
		if !d.cfg.Scheduler.Submit(0, j) {
			// It fit before the crash; refusing now means the cluster shrank
			// under us. Surface the loss rather than silently dropping it.
			log.Printf("daemon %s: recovery: scheduler refused job %s", d.cfg.Info.Spec.Name, rec.JobID)
			continue
		}
		d.jobs[rec.JobID] = j
		d.owners[rec.JobID] = rec.Owner
		d.prices[rec.JobID] = rec.Price
		d.tempSeq++
		d.tempUsers[rec.JobID] = fmt.Sprintf("fauc-tmp-%06d", d.tempSeq)
		d.outstanding += rec.Contract.Work
		d.Stage.CreateJob(rec.JobID)
		d.announce(rec.JobID, rec.Owner, rec.Contract.App)
	}
	if len(st.pending) > 0 {
		d.wake() // runLoop has not started yet; the kick waits for it
	}
	for _, req := range st.queued {
		d.settledIDs[req.JobID] = true
		d.outbox = append(d.outbox, req)
	}
	if err := d.journalRewrite(st.liveRecords()); err != nil {
		return err
	}
	return nil
}

// Metrics returns the daemon's registry (for -metrics-addr serving and
// harness scrapes).
func (d *Daemon) Metrics() *telemetry.Registry { return d.cfg.Metrics }

// trace records one job-lifecycle span event (no-op without a Tracer).
// Callers that format their detail check the Tracer first, so the text
// is built only when someone keeps it.
func (d *Daemon) trace(jobID, span, detail string) {
	d.cfg.Tracer.Record(jobID, span, detail)
}

// Now returns the daemon's virtual time in seconds.
func (d *Daemon) Now() float64 {
	return time.Since(d.epoch).Seconds() * d.cfg.TimeScale
}

// Name returns the Compute Server name.
func (d *Daemon) Name() string { return d.cfg.Info.Spec.Name }

// Start begins serving on l, registers with the Central Server, and
// launches the execution loop.
func (d *Daemon) Start(l net.Listener) error {
	if d.cfg.Info.Addr == "" {
		d.cfg.Info.Addr = l.Addr().String()
	}
	if d.cfg.CentralAddr != "" {
		if err := d.register(); err != nil {
			// The Central Server being down must not keep a Compute Server
			// from booting (it may be recovering from the same outage); the
			// re-register heartbeat completes the registration later.
			log.Printf("daemon %s: initial registration failed (heartbeat will retry): %v", d.Name(), err)
		}
	}
	d.wg.Add(2)
	go func() {
		defer d.wg.Done()
		// A Close that runs before Serve has taken l cannot close it;
		// Serve then does, and Close waits for that through d.wg.
		d.srv.Serve(l)
	}()
	go func() {
		defer d.wg.Done()
		d.runLoop()
	}()
	if d.cfg.CentralAddr != "" {
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			d.registerLoop()
		}()
	}
	if d.cfg.AppSpectorAddr != "" {
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			d.monitorLoop()
		}()
	}
	return nil
}

// registerLoop periodically re-registers with the Central Server so a
// restarted FS rebuilds its directory without operator action.
func (d *Daemon) registerLoop() {
	ticker := time.NewTicker(d.cfg.ReRegister)
	defer ticker.Stop()
	for {
		select {
		case <-d.closed:
			return
		case <-ticker.C:
			if err := d.register(); err != nil {
				log.Printf("daemon %s: re-register: %v", d.Name(), err)
			}
		}
	}
}

// Close stops the daemon, severing live connections, and waits for its
// goroutines.
func (d *Daemon) Close() {
	select {
	case <-d.closed:
	default:
		close(d.closed)
	}
	d.srv.Close()
	d.wg.Wait()
	// Last chance to deliver queued settlements (grid.Close stops
	// daemons before the Central Server for exactly this reason).
	d.flushSettlements()
	if d.journal != nil {
		// Compact the journal down to the live records so the next boot
		// replays state, not history.
		d.mu.Lock()
		var live []journalRecord
		for id, j := range d.jobs {
			if !j.State().Terminal() && !d.settledIDs[id] {
				c := *j.Contract
				live = append(live, journalRecord{
					Op: jopJob, JobID: id, Owner: d.owners[id],
					Price: d.prices[id], Contract: &c,
				})
			}
		}
		for i := range d.outbox {
			req := d.outbox[i]
			live = append(live, journalRecord{Op: jopQueue, Settle: &req})
		}
		d.mu.Unlock()
		if err := d.journalRewrite(reduce(live).liveRecords()); err != nil {
			log.Printf("daemon %s: journal compact: %v", d.Name(), err)
		}
		d.journal.close()
	}
	// After the final settlement flush: later Calls fail fast with
	// ErrPoolClosed instead of redialing a dead grid.
	d.pool.Close()
}

// centralAddr is the Central Server this daemon talks to: the
// configured address until a NOT_OWNER redirect re-homes it to the
// shard owning this daemon's name.
func (d *Daemon) centralAddr() string {
	d.centralMu.RLock()
	defer d.centralMu.RUnlock()
	if d.centralHome != "" {
		return d.centralHome
	}
	return d.cfg.CentralAddr
}

// register announces this daemon to the Central Server ("at startup each
// FD registers itself with the Faucets Central Server"). Registration is
// idempotent, so transient failures are retried with jittered backoff.
// Against a sharded mesh the configured address may be any shard: a
// NOT_OWNER redirect re-homes the daemon to its owning shard, which from
// then on receives its heartbeats, verifies, and settlements.
func (d *Daemon) register() error {
	retry := protocol.Retry{Attempts: 3, Base: 50 * time.Millisecond, Max: time.Second, Stop: d.closed}
	err := retry.Do(func() error {
		var ok protocol.RegisterOK
		err := d.pool.Call(d.centralAddr(), d.cfg.RPCTimeout,
			protocol.TypeRegisterReq, protocol.RegisterReq{Info: d.cfg.Info}, protocol.TypeRegisterOK, &ok)
		if owner, redirected := protocol.NotOwnerAddr(err); redirected && owner != "" {
			d.centralMu.Lock()
			d.centralHome = owner
			d.centralMu.Unlock()
			log.Printf("daemon %s: re-homed to owning shard %s", d.Name(), owner)
			return d.pool.Call(owner, d.cfg.RPCTimeout,
				protocol.TypeRegisterReq, protocol.RegisterReq{Info: d.cfg.Info}, protocol.TypeRegisterOK, &ok)
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("daemon: register: %w", err)
	}
	return nil
}

// verify re-checks a client's credentials with the Central Server (§2.2).
// Standalone daemons accept everyone. Successful checks are remembered
// for VerifyCacheTTL so the bid/commit/submit burst of one auction pays
// the nested round trip once; refusals are never cached, so a bad token
// is refused on every request.
func (d *Daemon) verify(user, token string) error {
	if d.cfg.CentralAddr == "" {
		return nil
	}
	key := verifyKey{user, token}
	if d.verifyCache != nil {
		d.verifyMu.Lock()
		exp, hit := d.verifyCache[key]
		d.verifyMu.Unlock()
		if hit && time.Now().Before(exp) {
			d.met.verifyCacheHits.Inc()
			return nil
		}
	}
	var ok protocol.VerifyOK
	err := d.pool.Call(d.centralAddr(), d.cfg.RPCTimeout,
		protocol.TypeVerifyReq, protocol.VerifyReq{User: user, Token: token}, protocol.TypeVerifyOK, &ok)
	if err != nil {
		return err
	}
	if d.verifyCache != nil {
		d.verifyMu.Lock()
		if len(d.verifyCache) >= verifyCacheMax {
			d.verifyCache = map[verifyKey]time.Time{}
		}
		d.verifyCache[key] = time.Now().Add(d.cfg.VerifyCacheTTL)
		d.verifyMu.Unlock()
	}
	return nil
}

// runLoop is the execution loop: it advances the scheduler in wall time,
// queues telemetry, settles finished jobs, and redelivers unacknowledged
// settlements. It is event-driven, the way gridsim's serverEntity.refresh
// is: after every pass it arms one timer for the wall instant of the
// scheduler's next event and sleeps until that fires or a kick reports a
// job arriving or leaving. An idle cluster costs no wakeups.
//
// runLoop is the only goroutine that calls flushSettlements while the
// daemon runs (Close calls it once more after runLoop has exited): two
// concurrent flushes would each deliver the same outbox entries.
func (d *Daemon) runLoop() {
	timer := time.NewTimer(maxSleep)
	defer timer.Stop()
	// go.mod predates Go 1.23's timer channels: a Reset must follow a
	// Stop and a drain, or a stale fire is delivered after it.
	disarm := func() {
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
	}
	disarm()
	settleTicker := time.NewTicker(d.cfg.SettleRetry)
	defer settleTicker.Stop()
	// AppSpector samples are due every virtual second, no more often
	// than telemetryFloor in wall time, and only while a monitor is
	// configured and something runs.
	sampling := d.cfg.AppSpectorAddr != ""
	sampleEvery := math.Max(1, telemetryFloor.Seconds()*d.cfg.TimeScale)
	nextSample := 0.0
	// lastPEs tracks each running job's allocation so adaptive
	// reallocations (paper §4: jobs shrink and expand between MinPE and
	// MaxPE) surface as shrink/expand span events. It is rebuilt from the
	// running set on every pass, so it never outgrows it.
	lastPEs, curPEs := map[string]int{}, map[string]int{}
	for {
		select {
		case <-d.closed:
			return
		case <-settleTicker.C:
			d.flushSettlements()
			continue
		case <-timer.C:
		case <-d.kick:
		}
		d.met.wakeups.Inc()
		now := d.Now()
		type peChange struct {
			id       string
			from, to int
		}
		var changes []peChange
		d.mu.Lock()
		finished := append(d.done, d.cfg.Scheduler.Advance(now)...)
		d.done = nil
		// The scheduler's own view: read only until d.mu is released.
		running := d.cfg.Scheduler.Running()
		next, armed := d.cfg.Scheduler.NextCompletion(now)
		for _, j := range running {
			id, pes := string(j.ID), j.PEs()
			if prev, seen := lastPEs[id]; seen && prev != pes {
				changes = append(changes, peChange{id: id, from: prev, to: pes})
			}
			curPEs[id] = pes
		}
		lastPEs, curPEs = curPEs, lastPEs
		clear(curPEs)
		if sampling && len(running) > 0 {
			if now >= nextSample {
				nextSample = now + sampleEvery
				for _, j := range running {
					d.monitor(protocol.TypeTelemetry, snapshotTelemetry(now, j, ""))
				}
			}
			if !armed || nextSample < next {
				next, armed = nextSample, true
			}
		}
		d.met.queueDepth.Set(float64(d.cfg.Scheduler.QueueLen()))
		d.met.runningJobs.Set(float64(len(running)))
		d.met.usedPEs.Set(float64(d.cfg.Scheduler.UsedPEs()))
		d.met.outboxDepth.Set(float64(len(d.outbox)))
		d.mu.Unlock()

		for _, ch := range changes {
			span := telemetry.SpanExpand
			if ch.to < ch.from {
				span = telemetry.SpanShrink
			}
			if d.cfg.Tracer != nil {
				d.trace(ch.id, span, fmt.Sprintf("%d -> %d PEs", ch.from, ch.to))
			}
		}
		for _, j := range finished {
			d.finishJob(now, j)
		}

		// Arm last, against a fresh clock: settling took wall time. A job
		// admitted or killed meanwhile left a kick behind, so a stale
		// `next` is corrected on the following pass.
		disarm()
		if armed {
			timer.Reset(d.wallUntil(next))
		}
	}
}

// maxSleep caps one timer arming, which keeps wallUntil's conversion to
// a time.Duration in range however distant the predicted instant is.
const maxSleep = time.Hour

// wallUntil is the wall time from now until virtual instant t, rounded
// up so the timer never fires a truncated nanosecond short of t (the
// pass would find nothing due and arm again).
func (d *Daemon) wallUntil(t float64) time.Duration {
	secs := (t - d.Now()) / d.cfg.TimeScale
	switch {
	case secs <= 0:
		return 0
	case secs >= maxSleep.Seconds():
		return maxSleep
	}
	return time.Duration(secs*float64(time.Second)) + 1
}

// catchUp advances the scheduler to now, which books every running
// job's progress: the run loop wakes only at scheduler events, so
// whatever reads that progress in between (a status reply, a bid's or
// an admission's view of the incumbents' remaining work) calls this
// first. Jobs it finds finished are left for runLoop to settle. Caller
// holds d.mu.
func (d *Daemon) catchUp(now float64) {
	if fin := d.cfg.Scheduler.Advance(now); len(fin) > 0 {
		d.done = append(d.done, fin...)
		d.wake()
	}
}

// wake pokes runLoop without blocking; safe under d.mu.
func (d *Daemon) wake() {
	select {
	case d.kick <- struct{}{}:
	default:
	}
}

// finishJob settles and reports a completed job. The settlement is
// queued in the outbox and flushed immediately; if the Central Server
// is unreachable the record survives and runLoop redelivers it.
func (d *Daemon) finishJob(now float64, j *job.Job) {
	id := string(j.ID)
	d.mu.Lock()
	if d.settledIDs[id] {
		d.mu.Unlock()
		return
	}
	d.settledIDs[id] = true
	d.outstanding -= j.Contract.Work
	if d.outstanding < 0 {
		d.outstanding = 0
	}
	price := d.prices[id]
	owner := d.owners[id]
	tmpUser := d.tempUsers[id]
	cpuUsed := j.CPUUsed()
	d.monitor(protocol.TypeTelemetry, snapshotTelemetry(now, j, fmt.Sprintf("%s finished at %.1f", id, now)))
	if d.cfg.CentralAddr != "" {
		// The Central Server resolves the user's home cluster from its
		// own accounts; the FD holds no accounting information. The
		// contract shape rides along for the §5.2.1 history buckets.
		req := protocol.SettleReq{
			JobID: id, User: owner, Server: d.Name(),
			App: j.Contract.App, MinPE: j.Contract.MinPE, MaxPE: j.Contract.MaxPE,
			Price: price, CPUSeconds: cpuUsed,
		}
		d.outbox = append(d.outbox, req)
		// "queue" is the job's terminal journal record: the settlement now
		// carries the obligation, and a restart redelivers it from here.
		d.journalAppend(journalRecord{Op: jopQueue, Settle: &req})
	} else {
		d.journalAppend(journalRecord{Op: jopDone, JobID: id})
	}
	d.met.jobsFinished.Inc()
	d.mu.Unlock()
	d.met.finishLag.Observe(time.Since(d.epoch).Seconds() - j.FinishTime/d.cfg.TimeScale)
	if d.cfg.Tracer != nil {
		d.trace(id, telemetry.SpanFinish, fmt.Sprintf("%.0f CPU-seconds", cpuUsed))
	}

	// The synthetic application's output file, stamped with the
	// temporary userid the job ran under (§2.2).
	_ = d.Stage.Append(id, "stdout.log", []byte(fmt.Sprintf("[%.1f] %s completed as %s: %.0f CPU-seconds\n", now, id, tmpUser, cpuUsed)))
	_ = d.Stage.Put(id, "result.out", []byte(fmt.Sprintf("job=%s user=%s work=%.0f cpu=%.0f\n", id, tmpUser, j.Contract.Work, cpuUsed)))

	d.flushSettlements()
}

// flushSettlements delivers queued settlements to the Central Server
// over the shared connection pool, removing each acknowledged (or
// permanently refused) one from the outbox. Transport failures keep
// records queued for the next cycle; the pool evicts broken
// connections, so a partitioned Central Server costs one fast failure
// here and a fresh dial on the next cycle — the outbox never wedges on
// a dead cached connection.
func (d *Daemon) flushSettlements() {
	if d.cfg.CentralAddr == "" {
		return
	}
	d.mu.Lock()
	pending := append([]protocol.SettleReq(nil), d.outbox...)
	d.mu.Unlock()
	if len(pending) == 0 {
		return
	}
	done := make(map[string]bool, len(pending))
	for _, req := range pending {
		var ok protocol.SettleOK
		err := d.pool.Call(d.centralAddr(), d.cfg.RPCTimeout, protocol.TypeSettleReq, req, protocol.TypeSettleOK, &ok)
		if err == nil {
			done[req.JobID] = true
			continue
		}
		var remote *protocol.RemoteError
		if errors.As(err, &remote) {
			if remote.Retryable {
				// Delivered, accepted in principle, but the central could
				// not make it durable (e.g. a WAL failure). Keep it
				// queued: redelivery is idempotent on the central's side.
				log.Printf("daemon %s: settlement %s deferred by central: %v", d.Name(), req.JobID, err)
				continue
			}
			// Delivered but refused: retrying unchanged cannot succeed,
			// so drop it rather than poison the queue forever. The job ID
			// and amount go to the log — this is billing data an operator
			// may need to reconcile by hand — and the poison counter, so a
			// quietly mis-refusing Central Server shows up on a dashboard.
			log.Printf("daemon %s: settlement dropped from outbox: job=%s server=%s price=%.4f refused by central: %v",
				d.Name(), req.JobID, req.Server, req.Price, err)
			d.met.outboxPoison.Inc()
			done[req.JobID] = true
			continue
		}
		break // connection-level trouble: retry the rest next cycle
	}
	if len(done) == 0 {
		return
	}
	var acked []string
	d.mu.Lock()
	kept := d.outbox[:0]
	for _, req := range d.outbox {
		if !done[req.JobID] {
			kept = append(kept, req)
		} else {
			d.journalAppend(journalRecord{Op: jopAck, JobID: req.JobID})
			d.met.settleAcked.Inc()
			acked = append(acked, req.JobID)
		}
	}
	d.outbox = kept
	d.met.outboxDepth.Set(float64(len(d.outbox)))
	d.mu.Unlock()
	for _, id := range acked {
		d.trace(id, telemetry.SpanSettle, "acknowledged by central")
	}
}

// OutboxLen reports how many settlements await acknowledgement.
func (d *Daemon) OutboxLen() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.outbox)
}

// snapshotTelemetry reads a job's fields into a telemetry sample; the
// caller must hold d.mu (or otherwise own the job).
func snapshotTelemetry(now float64, j *job.Job, output string) protocol.Telemetry {
	done := 0.0
	if j.Contract.Work > 0 {
		done = j.DoneWork() / j.Contract.Work
	}
	util := 0.0
	if j.State() == job.Running {
		util = j.Contract.Eff(j.PEs())
	}
	return protocol.Telemetry{
		JobID: string(j.ID), Time: now, PEs: j.PEs(), Util: util,
		Done: done, State: j.State().String(), Output: output,
	}
}

// monitor queues one frame of the stream to AppSpector; the caller holds
// d.mu, so frames leave in the order the daemon's state changed: a job's
// registration (queued by submit before it wakes runLoop) ahead of every
// sample of it. Best effort: a full queue drops the frame and counts it,
// and nothing on a job's path ever waits for the monitor.
func (d *Daemon) monitor(typ string, body any) {
	if d.cfg.AppSpectorAddr == "" {
		return
	}
	if len(d.monitorQ) < monitorBacklog {
		// Encoding fails only past MaxFrame, and then appends nothing.
		if q, err := protocol.AppendFrame(d.monitorQ, protocol.CodecBinary, 0, typ, body); err == nil {
			d.monitorQ = q
			d.monitorFrames++
			select {
			case d.monitorKick <- struct{}{}:
			default:
			}
			return
		}
	}
	d.met.monitorDrops.Inc()
}

// announce registers a starting job with the monitor; caller holds d.mu.
func (d *Daemon) announce(id, owner, app string) {
	d.monitor(protocol.TypeASRegisterReq, protocol.ASRegisterReq{JobID: id, Owner: owner, Server: d.Name(), App: app})
}

// monitorLoop is the stream's one writer: it takes everything queued,
// dials AppSpector if the stream is down, and sends the batch in one
// write. A batch the monitor cannot be handed is dropped and counted;
// the next one redials. Close severs the connection with the ones d.srv
// accepted, which is what ends a write to a monitor that stopped reading.
func (d *Daemon) monitorLoop() {
	var conn net.Conn
	var batch []byte
	for {
		select {
		case <-d.closed:
			return
		case <-d.monitorKick:
		}
		d.mu.Lock()
		batch, d.monitorQ = d.monitorQ, batch[:0]
		frames := d.monitorFrames
		d.monitorFrames = 0
		d.mu.Unlock()
		if frames == 0 {
			continue // the previous pass took what this kick announced
		}
		if conn == nil {
			c, err := protocol.Dial(d.cfg.AppSpectorAddr, d.cfg.RPCTimeout)
			if err == nil && d.srv.Track(c) {
				conn = c
			} else if err == nil {
				c.Close() // the daemon is closing
			}
		}
		if conn != nil {
			_ = conn.SetWriteDeadline(time.Now().Add(d.cfg.RPCTimeout))
			if _, err := conn.Write(batch); err == nil {
				continue
			}
			d.srv.Untrack(conn)
			conn.Close()
			conn = nil
		}
		d.met.monitorDrops.Add(uint64(frames))
	}
}

// bidScratch is what the bid_req arm needs only until it has replied.
type bidScratch struct {
	req   protocol.BidReq
	reply protocol.BidOK
}

var bidScratches = sync.Pool{New: func() any { return new(bidScratch) }}

func (d *Daemon) dispatch(conn *protocol.ReplyConn, f protocol.Frame) error {
	switch f.Type {
	case protocol.TypePollReq:
		d.mu.Lock()
		reply := protocol.PollOK{
			UsedPE:   d.cfg.Scheduler.UsedPEs(),
			QueueLen: d.cfg.Scheduler.QueueLen(),
			Running:  d.cfg.Scheduler.RunningCount(),
		}
		d.mu.Unlock()
		return protocol.WriteFrame(conn, protocol.TypePollOK, reply)

	case protocol.TypeBidReq:
		// Sixteen of these arrive per auction and nothing of one outlives
		// its reply — makeBid keeps neither the contract nor anything it
		// points at — so the request is decoded into a recycled scratch and
		// the reply encoded from it. Commit and submit keep fresh values: a
		// submitted contract is retained by the job.
		sc := bidScratches.Get().(*bidScratch)
		defer bidScratches.Put(sc)
		req := &sc.req
		if err := protocol.Decode(f, f.Type, req); err != nil {
			return err
		}
		if err := d.verify(req.User, req.Token); err != nil {
			return err
		}
		if req.Contract == nil {
			return errors.New("daemon: bid request without contract")
		}
		if err := req.Contract.Validate(); err != nil {
			return err
		}
		var ok bool
		if sc.reply.Bid, ok = d.makeBid(req.Contract); !ok {
			d.met.bidsDeclined.Inc()
			return fmt.Errorf("daemon: %s declines the job", d.Name())
		}
		d.met.bids.Inc()
		return protocol.WriteFrame(conn, protocol.TypeBidOK, &sc.reply)

	case protocol.TypeCommitReq:
		var req protocol.CommitReq
		if err := protocol.Decode(f, f.Type, &req); err != nil {
			return err
		}
		if err := d.verify(req.User, req.Token); err != nil {
			return err
		}
		if err := d.commit(req); err != nil {
			return err
		}
		return protocol.WriteFrame(conn, protocol.TypeCommitOK, protocol.CommitOK{JobID: req.JobID})

	case protocol.TypeSubmitReq:
		var req protocol.SubmitReq
		if err := protocol.Decode(f, f.Type, &req); err != nil {
			return err
		}
		if err := d.verify(req.User, req.Token); err != nil {
			return err
		}
		if err := d.submit(req); err != nil {
			return err
		}
		return protocol.WriteFrame(conn, protocol.TypeSubmitOK, protocol.SubmitOK{JobID: req.JobID})

	case protocol.TypeUploadReq:
		var req protocol.UploadReq
		if err := protocol.Decode(f, f.Type, &req); err != nil {
			return err
		}
		n, err := d.Stage.PutChunk(req.JobID, req.Name, req.Offset, req.Data, req.Last, req.SHA256)
		if err != nil {
			return err
		}
		return protocol.WriteFrame(conn, protocol.TypeUploadOK, protocol.UploadOK{Received: n})

	case protocol.TypeStatusReq:
		var req protocol.StatusReq
		if err := protocol.Decode(f, f.Type, &req); err != nil {
			return err
		}
		now := d.Now()
		d.mu.Lock()
		j, ok := d.jobs[req.JobID]
		var st protocol.StatusOK
		if ok {
			d.catchUp(now)
			done := 0.0
			if j.Contract.Work > 0 {
				done = j.DoneWork() / j.Contract.Work
			}
			st = protocol.StatusOK{JobID: req.JobID, State: j.State().String(), PEs: j.PEs(), Progress: done}
		}
		d.mu.Unlock()
		if !ok {
			return fmt.Errorf("daemon: unknown job %s", req.JobID)
		}
		return protocol.WriteFrame(conn, protocol.TypeStatusOK, st)

	case protocol.TypeKillReq:
		var req protocol.KillReq
		if err := protocol.Decode(f, f.Type, &req); err != nil {
			return err
		}
		if err := d.verify(req.User, req.Token); err != nil {
			return err
		}
		st, err := d.kill(req)
		if err != nil {
			return err
		}
		return protocol.WriteFrame(conn, protocol.TypeKillOK, protocol.KillOK{JobID: req.JobID, State: st})

	case protocol.TypeOutputReq:
		var req protocol.OutputReq
		if err := protocol.Decode(f, f.Type, &req); err != nil {
			return err
		}
		data, eof, err := d.Stage.ReadAt(req.JobID, req.Name, req.Offset, req.Limit)
		if err != nil {
			return err
		}
		sum := ""
		if eof {
			sum, _ = d.Stage.SHA256(req.JobID, req.Name)
		}
		return protocol.WriteFrame(conn, protocol.TypeOutputOK, protocol.OutputOK{Data: data, EOF: eof, SHA256: sum})

	default:
		return fmt.Errorf("daemon: unsupported frame %q", f.Type)
	}
}

// makeBid consults the scheduler and the bid generator.
func (d *Daemon) makeBid(c *qos.Contract) (bidding.Bid, bool) {
	if !d.cfg.Info.Exports(c.App) {
		return bidding.Bid{}, false
	}
	now := d.Now()
	d.mu.Lock()
	d.catchUp(now)
	st := bidding.StateFor(&d.cfg.Info.Spec, d.cfg.Scheduler, now, c, d.outstanding)
	d.mu.Unlock()
	return bidding.Make(d.cfg.Bidder, d.Name(), now, c, st, bidValidity)
}

// commit is phase two: hold capacity for a job whose files are still on
// their way. The reservation is bounded by the bid's expiry.
func (d *Daemon) commit(req protocol.CommitReq) error {
	return d.commitContract(req.JobID, req.User, req.Bid)
}

func (d *Daemon) commitContract(jobID, user string, b bidding.Bid) error {
	now := d.Now()
	if b.ExpiresAt > 0 && now > b.ExpiresAt {
		return fmt.Errorf("daemon: bid for %s expired", jobID)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	// Commits are idempotent per (job, user): a client whose ack was lost
	// to the network retries the same commit and must get a fresh ack,
	// not an error. A different user colliding on the ID is still refused.
	if res, dup := d.reserved[jobID]; dup {
		if res.user == user {
			return nil
		}
		return fmt.Errorf("daemon: job %s already committed", jobID)
	}
	if _, dup := d.jobs[jobID]; dup {
		if d.owners[jobID] == user {
			return nil
		}
		return fmt.Errorf("daemon: job %s already submitted", jobID)
	}
	d.reserved[jobID] = &reservation{user: user, bid: b}
	d.Stage.CreateJob(jobID)
	if d.cfg.Tracer != nil {
		d.trace(jobID, telemetry.SpanContract, fmt.Sprintf("committed to %s at price %.2f", d.Name(), b.Price))
	}
	return nil
}

// submit starts a committed job on the scheduler. Jobs may also be
// submitted without a prior commit (the client accepted the bid
// implicitly); the admission check happens here either way.
func (d *Daemon) submit(req protocol.SubmitReq) error {
	if req.Contract == nil {
		return errors.New("daemon: submit without contract")
	}
	if err := req.Contract.Validate(); err != nil {
		return err
	}
	if !d.cfg.Info.Exports(req.Contract.App) {
		return fmt.Errorf("daemon: %s does not export application %q", d.Name(), req.Contract.App)
	}
	now := d.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.jobs[req.JobID]; dup {
		// Same idempotency rule as commit: a retried submit from the same
		// user is re-acknowledged rather than refused, so a lost ack does
		// not strand the client.
		if d.owners[req.JobID] == req.User {
			return nil
		}
		return fmt.Errorf("daemon: job %s already submitted", req.JobID)
	}
	res := d.reserved[req.JobID]
	delete(d.reserved, req.JobID)

	j := job.New(job.ID(req.JobID), req.User, req.Contract, now)
	d.catchUp(now)
	if !d.cfg.Scheduler.Submit(now, j) {
		d.met.jobsRejected.Inc()
		return fmt.Errorf("daemon: %s refused job %s at submission", d.Name(), req.JobID)
	}
	d.met.jobsAdmitted.Inc()
	d.jobs[req.JobID] = j
	d.owners[req.JobID] = req.User
	// The end user holds no account on this Compute Server: the job runs
	// under a temporary userid (§2.2: "the Faucets system runs the job
	// with a temporary userid").
	d.tempSeq++
	d.tempUsers[req.JobID] = fmt.Sprintf("fauc-tmp-%06d", d.tempSeq)
	if res != nil {
		d.prices[req.JobID] = res.bid.Price
	}
	d.outstanding += req.Contract.Work
	d.Stage.CreateJob(req.JobID)
	d.journalAppend(journalRecord{
		Op: jopJob, JobID: req.JobID, Owner: req.User,
		Price: d.prices[req.JobID], Contract: req.Contract,
	})
	if d.cfg.Tracer != nil {
		d.trace(req.JobID, telemetry.SpanStart, fmt.Sprintf("started on %s with %d PEs", d.Name(), j.PEs()))
	}
	// Announced before the wake, so no sample of the job can be queued
	// ahead of its registration. A client holding SubmitOK may still watch
	// before the frame lands: AppSpector's watch path waits for it.
	d.announce(req.JobID, req.User, req.Contract.App)
	d.wake()
	return nil
}

// kill terminates a job on behalf of its owner (§2: users can interact
// with their jobs).
func (d *Daemon) kill(req protocol.KillReq) (state string, err error) {
	now := d.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	j, ok := d.jobs[req.JobID]
	if !ok {
		return "", fmt.Errorf("daemon: unknown job %s", req.JobID)
	}
	if d.owners[req.JobID] != req.User {
		return "", fmt.Errorf("daemon: job %s is not owned by %s", req.JobID, req.User)
	}
	d.catchUp(now)
	if j.State().Terminal() {
		return j.State().String(), nil // idempotent: already done
	}
	if !d.cfg.Scheduler.Kill(now, j.ID) {
		return "", fmt.Errorf("daemon: job %s could not be killed", req.JobID)
	}
	// A killed job settles nothing, so it is terminal for the journal.
	d.journalAppend(journalRecord{Op: jopDone, JobID: req.JobID})
	d.met.jobsKilled.Inc()
	d.outstanding -= j.RemainingWork()
	if d.outstanding < 0 {
		d.outstanding = 0
	}
	d.monitor(protocol.TypeTelemetry, snapshotTelemetry(now, j, fmt.Sprintf("%s killed by %s", req.JobID, req.User)))
	d.wake()
	return j.State().String(), nil
}

// TempUser returns the temporary userid a job runs under (§2.2).
func (d *Daemon) TempUser(id string) string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tempUsers[id]
}

// Job returns a submitted job by ID (diagnostics/tests).
func (d *Daemon) Job(id string) (*job.Job, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	j, ok := d.jobs[id]
	return j, ok
}
