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
	"slices"
	"strconv"
	"sync"
	"time"

	"faucets/internal/bidding"
	"faucets/internal/job"
	"faucets/internal/jsonl"
	"faucets/internal/protocol"
	"faucets/internal/qos"
	"faucets/internal/scheduler"
	"faucets/internal/server"
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
}

// DefaultVerifyCacheTTL bounds how stale a cached credential check may
// be. Short enough that a revoked session stops bidding within a couple
// of seconds; long enough to cover the bid/commit/submit burst of one
// auction round with a single verify round trip.
const DefaultVerifyCacheTTL = 2 * time.Second

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

// admission is one job the daemon has admitted: the job (its Owner the
// user who submitted it), the price its commitment agreed, the number
// of the temporary userid it runs under (§2.2: "the Faucets system runs
// the job with a temporary userid"), and the admission number its
// settlement carries (see admit); whether its finish is booked, and
// whether it has nothing left to deliver (see retireLocked). pes is the
// allocation last traced for it: its start's, then runLoop's.
type admission struct {
	j                *job.Job
	price            float64
	tmp, num         uint64
	pes              int
	settled, retired bool
}

// maxRetired is how many jobs with nothing left to deliver the daemon
// still answers for, as AppSpector (MaxFinished) and the tracer do.
const maxRetired = 4096

// Daemon is a running FD.
type Daemon struct {
	cfg   Config
	epoch time.Time

	mu sync.Mutex
	// core bids, holds commits (not journaled: a restart voids them),
	// admits and counts queued work; jobs is what the daemon keeps of each
	// job core admitted.
	core server.Core
	jobs map[string]admission
	// retireLocked's ring of the newest jobs retired.
	retiredIDs  []string
	retiredNext int
	tempSeq     uint64 // the last temporary userid handed out
	// outbox holds settlements the Central Server has not acknowledged
	// yet; runLoop redelivers them until each is acked (or refused).
	outbox []protocol.SettleReq
	// flushSettlements' own, reused: a call record per entry in flight.
	// Its only caller is runLoop while the daemon runs, and Close once
	// runLoop has exited, so they need no lock.
	flushCalls []*settleCall
	flushWG    sync.WaitGroup
	// kick wakes runLoop after a change to the scheduler's running set
	// that it did not make itself (submit, kill, recovery), so it
	// re-arms its timer. One pending kick covers any number of changes.
	kick chan struct{}
	// done holds jobs a request handler's catchUp found finished, until
	// runLoop settles them.
	done []*job.Job

	// journal persists admissions and the outbox (nil = in-memory only);
	// jrec is the record journalStage encodes through, under mu.
	journal *jsonl.Writer
	jrec    journalRecord
	// unplaced are admissions recovery replayed but the scheduler refused:
	// still owed, so every rewrite keeps them for a later boot.
	unplaced []journalRecord

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
	// monReg and monTel (under mu): what frames are encoded from, unboxed.
	monReg protocol.ASRegisterReq
	monTel protocol.Telemetry

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
		jobs:        map[string]admission{},
		Stage:       stage.NewStore(),
		closed:      make(chan struct{}),
		kick:        make(chan struct{}, 1),
		monitorKick: make(chan struct{}, 1),
		met:         newFDMetrics(cfg.Metrics),
		rpc:         telemetry.NewRPCMetrics(cfg.Metrics, "daemon"),
	}
	d.core.Reset(cfg.Info.Spec, cfg.Scheduler, cfg.Bidder)
	// A hold that ends without a job takes the area its upload made.
	d.core.Dropped = d.Stage.DropJob
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
	jnl.Instrument(d.cfg.Metrics, "faucets_daemon_journal_sync_total",
		"faucets_daemon_journal_batch_size", "faucets_daemon_journal_append_errors_total")
	st := reduce(recs)
	for _, rec := range st.pending {
		j := job.New(job.ID(rec.JobID), rec.Owner, rec.Contract, 0)
		if !d.core.Adopt(0, j) {
			// It fit before the crash; refusing now means the cluster shrank
			// under us. Surface the loss rather than silently dropping it,
			// and keep its admission on disk for a boot that can place it.
			log.Printf("daemon %s: recovery: scheduler refused job %s; kept in the journal", d.cfg.Info.Spec.Name, rec.JobID)
			d.unplaced = append(d.unplaced, rec)
			continue
		}
		d.tempSeq++
		d.jobs[rec.JobID] = admission{j: j, price: rec.Price, tmp: d.tempSeq, num: rec.Admission}
		d.Stage.CreateJob(rec.JobID)
		d.announce(rec.JobID, rec.Owner, rec.Contract.App)
	}
	if len(st.pending) > 0 {
		d.wake() // runLoop has not started yet; the kick waits for it
	}
	d.outbox = append(d.outbox, st.queued...)
	return d.rewriteJournalLocked()
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
	// The loop's timer first: a daemon that cannot arm one never serves.
	timer, err := newWakeTimer(&d.wg)
	if err != nil {
		return err
	}
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
		d.runLoop(timer)
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
// goroutines. Only the first call does anything.
func (d *Daemon) Close() {
	select {
	case <-d.closed:
		return // closed already: its journal may be a successor's now
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
		if err := d.rewriteJournalLocked(); err != nil {
			log.Printf("daemon %s: journal compact: %v", d.Name(), err)
		}
		d.mu.Unlock()
		d.journal.Close()
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
// is: after every pass it arms timer for the wall instant of the
// scheduler's next event and sleeps until that fires or a kick reports a
// job arriving or leaving. An idle cluster costs no wakeups. The timer
// is runLoop's alone, and it closes it on the way out.
//
// runLoop is the only goroutine that calls flushSettlements while the
// daemon runs (Close calls it once more after runLoop has exited): two
// concurrent flushes would each deliver the same outbox entries.
func (d *Daemon) runLoop(timer *wakeTimer) {
	defer timer.Close()
	settleTicker := time.NewTicker(d.cfg.SettleRetry)
	defer settleTicker.Stop()
	// AppSpector samples are due every virtual second, no more often
	// than telemetryFloor in wall time, and only while a monitor is
	// configured and something runs.
	sampling := d.cfg.AppSpectorAddr != ""
	sampleEvery := math.Max(1, telemetryFloor.Seconds()*d.cfg.TimeScale)
	nextSample := 0.0
	for {
		select {
		case <-d.closed:
			return
		case <-settleTicker.C:
			d.settle()
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
		finished := append(d.done, d.core.Advance(now)...)
		d.done = nil
		// The scheduler's own view: read only until d.mu is released.
		running := d.cfg.Scheduler.Running()
		next, armed := d.cfg.Scheduler.NextCompletion(now)
		// Adaptive reallocations (paper §4: jobs shrink and expand between
		// MinPE and MaxPE) surface as span events, against the allocation
		// last traced: a pass that lands after one still sees it.
		for _, j := range running {
			id, pes := string(j.ID), j.PEs()
			if a, ok := d.jobs[id]; ok && a.pes != pes {
				if a.pes > 0 {
					changes = append(changes, peChange{id: id, from: a.pes, to: pes})
				}
				a.pes = pes
				d.jobs[id] = a
			}
		}
		if sampling && len(running) > 0 {
			if now >= nextSample {
				nextSample = now + sampleEvery
				for _, j := range running {
					d.sample(now, j, "")
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
		if len(finished) > 0 {
			d.settle()
		}

		// Arm last, against a fresh clock: settling took wall time. A job
		// admitted or killed meanwhile left a kick behind, so a stale
		// `next` is corrected on the following pass.
		timer.Stop()
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
	if fin := d.core.Advance(now); len(fin) > 0 {
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

// finishJob books a completed job — settlement queued for runLoop's
// settle, journal record staged, output written — under d.mu, so a status
// read that finds the job settled also finds its output.
func (d *Daemon) finishJob(now float64, j *job.Job) {
	id := string(j.ID)
	d.mu.Lock()
	a := d.jobs[id]
	if a.settled {
		d.mu.Unlock()
		return
	}
	a.settled = true
	d.jobs[id] = a
	cpuUsed := j.CPUUsed()
	var text [96]byte
	d.sample(now, j, string(finishedText(text[:0], id, now)))
	if d.cfg.CentralAddr != "" {
		// The Central Server resolves the user's home cluster from its
		// own accounts; the FD holds no accounting information. The
		// contract shape rides along for the §5.2.1 history buckets.
		d.outbox = append(d.outbox, protocol.SettleReq{
			JobID: id, User: j.Owner, Server: d.Name(),
			App: j.Contract.App, MinPE: j.Contract.MinPE, MaxPE: j.Contract.MaxPE,
			Price: a.price, CPUSeconds: cpuUsed, Admission: a.num,
		})
		// "queue" is the job's terminal journal record: the settlement now
		// carries the obligation, and a restart redelivers it from here.
		d.journalStage(journalRecord{Op: jopQueue, Settle: &d.outbox[len(d.outbox)-1]})
	} else {
		d.journalStage(journalRecord{Op: jopDone, JobID: id})
		d.retireLocked(id, a.num)
	}
	// The synthetic application's output files, stamped with the
	// temporary userid the job ran under (§2.2): appended into one buffer
	// the store keeps, stdout.log capped so an append cannot reach
	// result.out.
	b, n := outputText(make([]byte, 0, 128+2*len(id)), now, id, a.tmp, j.Contract.Work, cpuUsed)
	_ = d.Stage.Append(id, "stdout.log", b[:n:n])
	_ = d.Stage.Put(id, "result.out", b[n:])
	d.met.jobsFinished.Inc()
	d.mu.Unlock()
	d.met.finishLag.Observe(time.Since(d.epoch).Seconds() - j.FinishTime/d.cfg.TimeScale)
	if d.cfg.Tracer != nil {
		d.trace(id, telemetry.SpanFinish, string(cpuText(text[:0], cpuUsed)))
	}
}

// retireLocked marks admission num of a job as having nothing left to
// deliver (its settlement acknowledged, its standalone finish or kill
// journaled) and forgets, whole, the one retired maxRetired jobs before
// it: its status and outputs then answer "unknown job", and its ID is
// free, a new run the Central Server books and bills as such. A journal
// rewrite leaves settled jobs out already. Caller holds d.mu.
func (d *Daemon) retireLocked(id string, num uint64) {
	a, ok := d.jobs[id]
	if !ok || a.retired || a.num != num {
		return // an earlier admission's ack: the ID runs again
	}
	a.retired = true
	d.jobs[id] = a
	if len(d.retiredIDs) < maxRetired {
		d.retiredIDs = append(d.retiredIDs, id)
		return
	}
	old := d.retiredIDs[d.retiredNext]
	d.retiredIDs[d.retiredNext] = id
	d.retiredNext = (d.retiredNext + 1) % maxRetired
	delete(d.jobs, old)
	d.Stage.DropJob(old)
}

// settle delivers the outbox, then waits once for every journal record
// staged so far (finishes and acks) to reach the disk: one fsync a pass.
func (d *Daemon) settle() {
	d.flushSettlements()
	_ = d.journalWait(jticket{}, nil)
}

// maxSettleFlight bounds the settlements (and a cold pool's goroutines)
// one flush puts in flight; a longer outbox's rest waits for a pass.
const maxSettleFlight = 1024

// settleCall is one outbox entry in flight, reused: a copy of the entry
// and its pooled exchange, Done made with the record; drop: it leaves.
type settleCall struct {
	protocol.PoolCall
	req  protocol.SettleReq
	err  error
	drop bool
}

// flushSettlements delivers queued settlements to the Central Server
// over the shared connection pool, all in flight at once, and
// removes each acknowledged (or permanently refused) one from the outbox.
// A transport failure keeps its own entry queued for the next cycle; the
// pool evicts broken connections, so a partitioned Central Server costs
// one fast failure here and a fresh dial on the next cycle — the outbox
// never wedges on a dead cached connection.
func (d *Daemon) flushSettlements() {
	if d.cfg.CentralAddr == "" {
		return
	}
	d.mu.Lock()
	n := min(len(d.outbox), maxSettleFlight)
	for len(d.flushCalls) < n {
		c := new(settleCall)
		c.Done = func(err error) { c.err = err; d.flushWG.Done() }
		d.flushCalls = append(d.flushCalls, c)
	}
	calls := d.flushCalls[:n]
	for i, c := range calls {
		c.req = d.outbox[i]
	}
	d.mu.Unlock()
	if len(calls) == 0 {
		return
	}
	addr := d.centralAddr()
	d.flushWG.Add(len(calls))
	for _, c := range calls {
		c.Addr, c.Timeout, c.ReqType, c.Req = addr, d.cfg.RPCTimeout, protocol.TypeSettleReq, &c.req
		c.WantReply, c.Reply = protocol.TypeSettleOK, &protocol.SettleOK{}
		d.pool.Start(&c.PoolCall)
	}
	d.flushWG.Wait()
	for _, c := range calls {
		req, err := &c.req, c.err
		c.drop = err == nil
		if err != nil {
			var remote *protocol.RemoteError // declared here: errors.As makes it escape
			switch {
			case !errors.As(err, &remote):
				// Connection-level trouble: retry it next cycle.
			case remote.Retryable:
				// Delivered, accepted in principle, but the central could
				// not make it durable (e.g. a WAL failure). Keep it
				// queued: redelivery is idempotent on the central's side.
				log.Printf("daemon %s: settlement %s deferred by central: %v", d.Name(), req.JobID, err)
			default:
				// Delivered but refused: retrying unchanged cannot succeed,
				// so drop it rather than poison the queue forever. The job ID
				// and amount go to the log — this is billing data an operator
				// may need to reconcile by hand — and the poison counter, so a
				// quietly mis-refusing Central Server shows up on a dashboard.
				log.Printf("daemon %s: settlement dropped from outbox: job=%s server=%s price=%.4f refused by central: %v",
					d.Name(), req.JobID, req.Server, req.Price, err)
				d.met.outboxPoison.Inc()
				c.drop = true
			}
		}
	}
	// Entries are only appended meanwhile: calls[i] is still outbox[i].
	d.mu.Lock()
	kept := d.outbox[:0]
	for i, req := range d.outbox {
		if i >= len(calls) || !calls[i].drop {
			kept = append(kept, req)
			continue
		}
		d.journalStage(journalRecord{Op: jopAck, JobID: req.JobID, Admission: req.Admission})
		d.retireLocked(req.JobID, req.Admission)
		d.met.settleAcked.Inc()
	}
	d.outbox = kept
	d.met.outboxDepth.Set(float64(len(d.outbox)))
	d.mu.Unlock()
	for _, c := range calls { // each one dropped left the outbox above
		if c.drop {
			d.trace(c.req.JobID, telemetry.SpanSettle, "acknowledged by central")
		}
	}
}

// OutboxLen reports how many settlements await acknowledgement.
func (d *Daemon) OutboxLen() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.outbox)
}

// sample queues a telemetry sample of a job for the monitor; caller holds
// d.mu.
func (d *Daemon) sample(now float64, j *job.Job, output string) {
	done := 0.0
	if j.Contract.Work > 0 {
		done = j.DoneWork() / j.Contract.Work
	}
	util := 0.0
	if j.State() == job.Running {
		util = j.Contract.Eff(j.PEs())
	}
	d.monTel = protocol.Telemetry{
		JobID: string(j.ID), Time: now, PEs: j.PEs(), Util: util,
		Done: done, State: j.State().String(), Output: output,
	}
	d.monitor(protocol.TypeTelemetry, &d.monTel)
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
	d.monReg = protocol.ASRegisterReq{JobID: id, Owner: owner, Server: d.Name(), App: app}
	d.monitor(protocol.TypeASRegisterReq, &d.monReg)
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

// connScratch is what the bid_req, commit_req and submit_req arms need
// only until they have replied, or handed the reply off. It lives in its
// connection's Scratch slot, so a request is decoded into the value the
// connection's previous one left: a client's user, token and application
// strings are decoded once a connection, however many other clients the
// daemon is serving.
type connScratch struct {
	bid      protocol.BidReq
	bidOK    protocol.BidOK
	commit   protocol.CommitReq
	commitOK protocol.CommitOK
	submit   protocol.SubmitReq
}

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
		// points at — so the request is decoded into the connection's
		// scratch and the reply encoded from it. Submit keeps fresh values:
		// a submitted contract is retained by the job.
		sc := scratchOf(conn)
		req := &sc.bid
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
		if sc.bidOK.Bid, ok = d.makeBid(req.Contract); !ok {
			d.met.bidsDeclined.Inc()
			return fmt.Errorf("daemon: %s declines the job", d.Name())
		}
		d.met.bids.Inc()
		return protocol.WriteFrame(conn, protocol.TypeBidOK, &sc.bidOK)

	case protocol.TypeCommitReq:
		// A hold keeps the user and job ID strings, which a later decode
		// replaces and never writes, and copies the rest; so the commit
		// too decodes into the connection's scratch.
		sc := scratchOf(conn)
		req := &sc.commit
		if err := protocol.Decode(f, f.Type, req); err != nil {
			return err
		}
		if err := d.verify(req.User, req.Token); err != nil {
			return err
		}
		if err := d.commit(req); err != nil {
			return err
		}
		sc.commitOK.JobID = req.JobID
		return protocol.WriteFrame(conn, protocol.TypeCommitOK, &sc.commitOK)

	case protocol.TypeSubmitReq:
		// admit keeps copies of the contract and the job ID (a string the
		// next decode replaces, never writes): decoded into the scratch.
		req := &scratchOf(conn).submit
		if err := protocol.Decode(f, f.Type, req); err != nil {
			return err
		}
		if err := d.verify(req.User, req.Token); err != nil {
			return err
		}
		t, err := d.admit(req)
		if err != nil {
			return err
		}
		replyDurable(d, &submitReplies, conn, t, protocol.TypeSubmitOK, protocol.SubmitOK{JobID: req.JobID})
		return nil

	case protocol.TypeUploadReq:
		var req protocol.UploadReq
		if err := protocol.Decode(f, f.Type, &req); err != nil {
			return err
		}
		if err := d.verify(req.User, req.Token); err != nil {
			return err
		}
		n, err := d.upload(&req)
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
		a := d.jobs[req.JobID]
		j := a.j
		var st protocol.StatusOK
		if j != nil {
			d.catchUp(now)
			done := 0.0
			if j.Contract.Work > 0 {
				done = j.DoneWork() / j.Contract.Work
			}
			state := j.State()
			if state == job.Finished && !a.settled {
				state = job.Running // until finishJob has written its output
			}
			st = protocol.StatusOK{JobID: req.JobID, State: state.String(), PEs: j.PEs(), Progress: done}
		}
		d.mu.Unlock()
		if j == nil {
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
		st, t, err := d.terminate(req)
		if err != nil {
			return err
		}
		replyDurable(d, &killReplies, conn, t, protocol.TypeKillOK, protocol.KillOK{JobID: req.JobID, State: st})
		return nil

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

// durableReply is a reply that waits for its journal ticket, from a
// goroutine of its own: the connection's next request does not queue
// behind this one's fsync. Replies are pooled, a pool a body type, and
// hold their body, so the hand-off neither copies into a closure nor
// boxes the body.
type durableReply[B any] struct {
	d    *Daemon
	r    protocol.Deferred
	t    jticket
	typ  string
	body B
	pool *sync.Pool
}

var (
	submitReplies = sync.Pool{New: func() any { return new(durableReply[protocol.SubmitOK]) }}
	killReplies   = sync.Pool{New: func() any { return new(durableReply[protocol.KillOK]) }}
)

// replyDurable answers conn's request with body as typ once t is on disk.
func replyDurable[B any](d *Daemon, pool *sync.Pool, conn *protocol.ReplyConn, t jticket, typ string, body B) {
	rep := pool.Get().(*durableReply[B])
	*rep = durableReply[B]{d, conn.Defer(), t, typ, body, pool}
	go rep.finish()
}

func (rep *durableReply[B]) finish() {
	rep.r.Finish(rep.typ, &rep.body, rep.d.journalWait(rep.t, nil))
	pool := rep.pool
	*rep = durableReply[B]{}
	pool.Put(rep)
}

// scratchOf returns the connection's scratch, making it on the
// connection's first bid, commit or submit.
func scratchOf(conn *protocol.ReplyConn) *connScratch {
	sc, _ := conn.Scratch.(*connScratch)
	if sc == nil {
		sc = new(connScratch)
		conn.Scratch = sc
	}
	return sc
}

// makeBid prices a bid for c: the core's state under d.mu, its bidder
// outside it, since a weather or history bidder may call the Central
// Server.
func (d *Daemon) makeBid(c *qos.Contract) (bidding.Bid, bool) {
	if !d.cfg.Info.Exports(c.App) {
		return bidding.Bid{}, false
	}
	now := d.Now()
	d.mu.Lock()
	d.catchUp(now)
	st := d.core.State(now, c)
	d.mu.Unlock()
	return d.core.Bid(now, c, st)
}

// commit is phase two: the core holds the daemon to its price while the
// job's files are on their way. The first upload makes the staging area,
// or the submit. A commit of an admitted job is re-acknowledged for its
// owner, as a lost ack's retry.
func (d *Daemon) commit(req *protocol.CommitReq) error {
	now := d.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, known, err := d.ownerLocked(req.JobID, req.User); known {
		return err
	}
	if err := d.core.Commit(now, req.JobID, req.User, req.Bid); err != nil {
		return err
	}
	if d.cfg.Tracer != nil {
		var text [96]byte
		d.trace(req.JobID, telemetry.SpanContract, string(committedText(text[:0], d.Name(), req.Bid.Price)))
	}
	return nil
}

// ownerLocked answers, in front of the core's hold check, for a job ID
// the daemon holds: the admission, and server.ErrNotOwner wrapped if
// user does not own it; known is false for any other ID. Caller holds
// d.mu.
func (d *Daemon) ownerLocked(jobID, user string) (admission, bool, error) {
	if a, ok := d.jobs[jobID]; ok {
		if a.j.Owner != user {
			return a, true, fmt.Errorf("daemon: job %s already submitted: %w", jobID, server.ErrNotOwner)
		}
		return a, true, nil
	}
	return admission{}, false, nil
}

// upload stages one chunk of an input file for the user who owns the
// job. A job takes uploads while its commitment holds (the first one makes
// its staging area) and once it has been submitted.
func (d *Daemon) upload(req *protocol.UploadReq) (int64, error) {
	now := d.Now()
	d.mu.Lock()
	_, known, err := d.ownerLocked(req.JobID, req.User)
	if !known {
		if _, err = d.core.HeldFor(now, req.JobID, req.User); err == nil {
			d.Stage.CreateJob(req.JobID)
		}
	}
	d.mu.Unlock()
	if errors.Is(err, server.ErrNoCommitment) {
		return 0, fmt.Errorf("%w: %s", stage.ErrNoJob, req.JobID)
	}
	if err != nil {
		return 0, err
	}
	return d.Stage.PutChunk(req.JobID, req.Name, req.Offset, req.Data, req.Last, req.SHA256)
}

// admit starts a committed job, at the price its user's hold agreed, and
// returns the admission's journal ticket: SubmitOK is written only once
// that is on disk. The job keeps a copy of req's contract. Its admission
// number is the boot's wall-clock epoch in nanoseconds plus tempSeq.
func (d *Daemon) admit(req *protocol.SubmitReq) (jticket, error) {
	if req.Contract == nil {
		return jticket{}, errors.New("daemon: submit without contract")
	}
	if err := req.Contract.Validate(); err != nil {
		return jticket{}, err
	}
	if !d.cfg.Info.Exports(req.Contract.App) {
		return jticket{}, fmt.Errorf("daemon: %s does not export application %q", d.Name(), req.Contract.App)
	}
	now := d.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, known, err := d.ownerLocked(req.JobID, req.User); known {
		// Same idempotency rule as commit: a retried submit from the same
		// user is re-acknowledged rather than refused, so a lost ack does
		// not strand the client — once the original's record is on disk.
		if err != nil {
			d.met.jobsRejected.Inc()
		}
		return jticket{}, err
	}
	c := *req.Contract
	c.Phases = slices.Clone(c.Phases)
	j := job.New(job.ID(req.JobID), req.User, &c, now)
	d.catchUp(now)
	price, err := d.core.Submit(now, j)
	if err != nil {
		d.met.jobsRejected.Inc()
		return jticket{}, err
	}
	d.met.jobsAdmitted.Inc()
	d.tempSeq++
	num := uint64(d.epoch.UnixNano()) + d.tempSeq
	d.jobs[req.JobID] = admission{j: j, price: price, tmp: d.tempSeq, num: num, pes: j.PEs()}
	d.Stage.CreateJob(req.JobID)
	t := d.journalStage(journalRecord{
		Op: jopJob, JobID: req.JobID, Owner: req.User,
		Price: price, Contract: &c, Admission: num,
	})
	if d.cfg.Tracer != nil {
		var text [96]byte
		d.trace(req.JobID, telemetry.SpanStart, string(startedText(text[:0], d.Name(), j.PEs())))
	}
	// Announced before the wake, so no sample of the job can be queued
	// ahead of its registration. A client holding SubmitOK may still watch
	// before the frame lands: AppSpector's watch path waits for it.
	d.announce(req.JobID, req.User, req.Contract.App)
	d.wake()
	return t, nil
}

// terminate kills a job on behalf of its owner (§2: users can interact
// with their jobs) and returns the kill's journal ticket: KillOK is
// written only once that is on disk.
func (d *Daemon) terminate(req protocol.KillReq) (state string, t jticket, err error) {
	now := d.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	a, _, err := d.ownerLocked(req.JobID, req.User)
	j := a.j
	if j == nil {
		return "", t, fmt.Errorf("daemon: unknown job %s", req.JobID)
	}
	if err != nil {
		return "", t, err
	}
	d.catchUp(now)
	if j.State().Terminal() {
		return j.State().String(), t, nil // idempotent: already done
	}
	if !d.core.Kill(now, j) {
		return "", t, fmt.Errorf("daemon: job %s could not be killed", req.JobID)
	}
	// A killed job settles nothing, so it is terminal for the journal.
	t = d.journalStage(journalRecord{Op: jopDone, JobID: req.JobID})
	d.retireLocked(req.JobID, a.num)
	d.met.jobsKilled.Inc()
	d.sample(now, j, fmt.Sprintf("%s killed by %s", req.JobID, req.User))
	d.wake()
	return j.State().String(), t, nil
}

// The trip's span details, finish sample and output lines, appended to b
// with no argument boxed: each writes what the fmt format it names did,
// byte for byte.

// committedText: "committed to %s at price %.2f".
func committedText(b []byte, server string, price float64) []byte {
	return strconv.AppendFloat(append(append(append(b, "committed to "...), server...), " at price "...), price, 'f', 2, 64)
}

// startedText: "started on %s with %d PEs".
func startedText(b []byte, server string, pes int) []byte {
	return append(strconv.AppendInt(append(append(append(b, "started on "...), server...), " with "...), int64(pes), 10), " PEs"...)
}

// finishedText: "%s finished at %.1f".
func finishedText(b []byte, id string, now float64) []byte {
	return strconv.AppendFloat(append(append(b, id...), " finished at "...), now, 'f', 1, 64)
}

// cpuText: "%.0f CPU-seconds".
func cpuText(b []byte, cpu float64) []byte {
	return append(strconv.AppendFloat(b, cpu, 'f', 0, 64), " CPU-seconds"...)
}

// outputText appends stdout.log's line, "[%.1f] %s completed as
// fauc-tmp-%06d: %.0f CPU-seconds\n", then result.out's, "job=%s
// user=fauc-tmp-%06d work=%.0f cpu=%.0f\n", and returns where that starts.
func outputText(b []byte, now float64, id string, tmp uint64, work, cpu float64) ([]byte, int) {
	b = strconv.AppendFloat(append(b, '['), now, 'f', 1, 64)
	b = tmpUser(append(append(append(b, "] "...), id...), " completed as "...), tmp)
	b = append(cpuText(append(b, ": "...), cpu), '\n')
	n := len(b)
	b = tmpUser(append(append(append(b, "job="...), id...), " user="...), tmp)
	b = strconv.AppendFloat(append(b, " work="...), work, 'f', 0, 64)
	return append(strconv.AppendFloat(append(b, " cpu="...), cpu, 'f', 0, 64), '\n'), n
}

// tmpUser: "fauc-tmp-%06d".
func tmpUser(b []byte, tmp uint64) []byte {
	b = append(b, "fauc-tmp-"...)
	for w := uint64(100000); w > 1 && tmp < w; w /= 10 {
		b = append(b, '0')
	}
	return strconv.AppendUint(b, tmp, 10)
}
