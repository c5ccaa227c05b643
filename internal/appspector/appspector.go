// Package appspector implements the Job Monitoring component of the
// Faucets system (paper §2, Fig 3): "AppSpector server connects to the
// job through a network connection and buffers the display data so that
// multiple clients can monitor the job simultaneously. Any authenticated
// users using the faucets client can connect to their running (or just
// completed) parallel job using its job-ID via the AppSpector."
//
// Each telemetry sample carries the two sections of the Fig 3 display:
// the generic processor-utilization/throughput section and the
// application-specific output text.
package appspector

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"faucets/internal/protocol"
	"faucets/internal/telemetry"
)

// VerifyFunc checks a client token with the Faucets Central Server; nil
// disables authentication (standalone/test deployments).
type VerifyFunc func(token string) (user string, err error)

// jobStream is the buffered display data of one job.
type jobStream struct {
	owner    string
	server   string
	app      string
	history  []protocol.Telemetry
	watchers map[chan protocol.Telemetry]struct{}
	done     bool
}

// Server is the AppSpector daemon.
type Server struct {
	mu     sync.Mutex
	jobs   map[string]*jobStream
	verify VerifyFunc
	// util is the generic section summed over the live streams, each
	// counted with its latest sample, and utilSum their Σ utilization
	// (Jobs and MeanUtil are derived when it is read). Register, Ingest
	// and the watch path keep them current from the one stream they
	// touch, so no request walks the jobs the monitor holds.
	util    Utilization
	utilSum float64
	// finished lists ended streams oldest first, for eviction.
	finished []string
	// registered wakes watchers waiting for a registration in flight.
	registered *sync.Cond

	// srv owns the listener and the FD and client connections; closed
	// tells a watcher waiting for a registration to give up.
	srv    *protocol.Server
	closed chan struct{}

	// MaxHistory bounds buffered samples per job (oldest dropped).
	MaxHistory int
	// MaxFinished bounds the ended streams kept watchable (oldest
	// evicted); live streams are never evicted.
	MaxFinished int

	// Metrics is this server's registry, served at -metrics-addr.
	Metrics *telemetry.Registry
	met     *asMetrics
}

// asMetrics holds the AppSpector's pre-resolved instruments.
type asMetrics struct {
	samples  *telemetry.Counter // telemetry samples ingested
	unknown  *telemetry.Counter // samples for unregistered jobs
	dropped  *telemetry.Counter // fan-out sends dropped on slow watchers
	watchReq *telemetry.Counter // watch subscriptions served
	jobs     *telemetry.Gauge   // registered jobs
	liveJobs *telemetry.Gauge   // jobs still streaming
	watchers *telemetry.Gauge   // attached live watchers
	pes      *telemetry.Gauge   // processors allocated across live jobs
	meanUtil *telemetry.Gauge   // mean utilization across live jobs
	utilDist *telemetry.Histogram
}

// utilBuckets spans the [0,1] utilization ratio reported per sample.
var utilBuckets = []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 1}

func newASMetrics(reg *telemetry.Registry) *asMetrics {
	return &asMetrics{
		samples:  reg.Counter("faucets_appspector_samples_total", "Telemetry samples ingested."),
		unknown:  reg.Counter("faucets_appspector_unknown_job_samples_total", "Samples for jobs never registered."),
		dropped:  reg.Counter("faucets_appspector_watcher_drops_total", "Fan-out sends dropped because a watcher was slow."),
		watchReq: reg.Counter("faucets_appspector_watch_requests_total", "Watch subscriptions served."),
		jobs:     reg.Gauge("faucets_appspector_jobs", "Jobs registered with the monitor."),
		liveJobs: reg.Gauge("faucets_appspector_live_jobs", "Jobs still streaming telemetry."),
		watchers: reg.Gauge("faucets_appspector_watchers", "Live watcher subscriptions."),
		pes:      reg.Gauge("faucets_appspector_allocated_pes", "Processors allocated across live jobs (Fig 3 generic section)."),
		meanUtil: reg.Gauge("faucets_appspector_mean_utilization", "Mean processor utilization across live jobs (Fig 3 generic section)."),
		utilDist: reg.Histogram("faucets_appspector_sample_utilization", "Distribution of per-sample processor utilization ratios.", utilBuckets),
	}
}

// NewServer returns an AppSpector server; verify may be nil.
func NewServer(verify VerifyFunc) *Server {
	reg := telemetry.NewRegistry()
	s := &Server{
		jobs:        map[string]*jobStream{},
		verify:      verify,
		closed:      make(chan struct{}),
		MaxHistory:  4096,
		MaxFinished: 4096,
		Metrics:     reg,
		met:         newASMetrics(reg),
	}
	s.registered = sync.NewCond(&s.mu)
	s.srv = protocol.NewServer("appspector", s.dispatch, nil)
	return s
}

// registerWait is how long a watch on an unknown job waits for the
// registration to arrive. The FD announces a job one-way, off the
// submit path, so a client that watches the instant it holds SubmitOK
// can be ahead of it. Well inside the client's handshake deadline.
const registerWait = time.Second

// ErrUnknownJob is returned for watch requests on unregistered jobs.
var ErrUnknownJob = errors.New("appspector: unknown job")

// Register announces a job (the FD does this when the job starts).
func (s *Server) Register(jobID, owner, server, app string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.jobs[jobID]; ok {
		return
	}
	s.jobs[jobID] = &jobStream{owner: owner, server: server, app: app}
	s.registered.Broadcast()
	s.gaugeLocked()
}

// Ingest buffers one telemetry sample and fans it out to live watchers.
// Samples with a terminal state close the stream.
func (s *Server) Ingest(t protocol.Telemetry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	js, ok := s.jobs[t.JobID]
	if !ok {
		s.met.unknown.Inc()
		return fmt.Errorf("%w: %s", ErrUnknownJob, t.JobID)
	}
	if js.done {
		return nil
	}
	s.met.samples.Inc()
	s.met.utilDist.Observe(t.Util)
	s.count(js, -1)
	js.history = append(js.history, t)
	if len(js.history) > s.MaxHistory {
		js.history = js.history[len(js.history)-s.MaxHistory:]
	}
	for ch := range js.watchers {
		select {
		case ch <- t:
		default: // slow watcher: drop rather than block the job
			s.met.dropped.Inc()
		}
	}
	if terminal(t.State) {
		js.done = true
		for ch := range js.watchers {
			close(ch)
		}
		s.util.Watchers -= len(js.watchers)
		js.watchers = nil
		if s.finished = append(s.finished, t.JobID); len(s.finished) > s.MaxFinished {
			delete(s.jobs, s.finished[0])
			s.finished = s.finished[1:]
		}
	}
	s.count(js, +1)
	s.gaugeLocked()
	return nil
}

// count adds (sign +1) or retires (−1) a stream's contribution to the
// generic section; a stream contributes while it is live and has a
// sample. Ingest brackets its change to the stream with the two.
func (s *Server) count(js *jobStream, sign int) {
	n := len(js.history)
	if js.done || n == 0 {
		return
	}
	s.util.LiveJobs += sign
	s.util.PEs += sign * js.history[n-1].PEs
	s.utilSum += float64(sign) * js.history[n-1].Util
	if s.util.LiveJobs == 0 {
		s.utilSum = 0 // shed the rounding the running sum picked up
	}
}

// Utilization is the generic section of the Fig 3 display aggregated
// across the whole monitor: how many jobs are live, how many processors
// they hold, and their mean utilization — each live job contributing its
// most recent sample.
type Utilization struct {
	Jobs     int     `json:"jobs"`
	LiveJobs int     `json:"live_jobs"`
	PEs      int     `json:"pes"`
	MeanUtil float64 `json:"mean_util"`
	Watchers int     `json:"watchers"`
}

// Utilization aggregates the latest telemetry of every live job.
func (s *Server) Utilization() Utilization {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.utilizationLocked()
}

func (s *Server) utilizationLocked() Utilization {
	u := s.util
	u.Jobs = len(s.jobs)
	if u.LiveJobs > 0 {
		u.MeanUtil = s.utilSum / float64(u.LiveJobs)
	}
	return u
}

// gaugeLocked refreshes the aggregate gauges; the caller holds s.mu.
func (s *Server) gaugeLocked() {
	u := s.utilizationLocked()
	s.met.jobs.Set(float64(u.Jobs))
	s.met.liveJobs.Set(float64(u.LiveJobs))
	s.met.watchers.Set(float64(u.Watchers))
	s.met.pes.Set(float64(u.PEs))
	s.met.meanUtil.Set(u.MeanUtil)
}

func terminal(state string) bool {
	switch state {
	case "finished", "rejected", "killed":
		return true
	}
	return false
}

// Snapshot returns the buffered history of a job and whether the stream
// has ended.
func (s *Server) Snapshot(jobID string) ([]protocol.Telemetry, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	js, ok := s.jobs[jobID]
	if !ok {
		return nil, false, fmt.Errorf("%w: %s", ErrUnknownJob, jobID)
	}
	return append([]protocol.Telemetry(nil), js.history...), js.done, nil
}

// subscribe attaches a watcher: it receives the buffered history
// (if fromStart) and a channel of live samples (nil if the job is done).
// A job not registered yet is waited for, up to registerWait.
func (s *Server) subscribe(jobID string, fromStart bool) ([]protocol.Telemetry, chan protocol.Telemetry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	js, ok := s.jobs[jobID]
	if !ok {
		deadline := time.Now().Add(registerWait)
		defer time.AfterFunc(registerWait, s.registered.Broadcast).Stop()
		for !ok && time.Now().Before(deadline) && !s.isClosed() {
			s.registered.Wait()
			js, ok = s.jobs[jobID]
		}
	}
	if !ok {
		return nil, nil, fmt.Errorf("%w: %s", ErrUnknownJob, jobID)
	}
	var hist []protocol.Telemetry
	if fromStart {
		hist = append(hist, js.history...)
	}
	if js.done {
		return hist, nil, nil
	}
	ch := make(chan protocol.Telemetry, 256)
	if js.watchers == nil {
		js.watchers = map[chan protocol.Telemetry]struct{}{}
	}
	js.watchers[ch] = struct{}{}
	s.util.Watchers++
	s.met.watchers.Add(1)
	return hist, ch, nil
}

func (s *Server) unsubscribe(jobID string, ch chan protocol.Telemetry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if js, ok := s.jobs[jobID]; ok {
		if _, present := js.watchers[ch]; present {
			delete(js.watchers, ch)
			s.util.Watchers--
			s.met.watchers.Add(-1)
		}
	}
}

// Watchers returns the live watcher count for a job (diagnostics).
func (s *Server) Watchers(jobID string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if js, ok := s.jobs[jobID]; ok {
		return len(js.watchers)
	}
	return 0
}

// Serve accepts connections on l until Close.
func (s *Server) Serve(l net.Listener) { s.srv.Serve(l) }

func (s *Server) isClosed() bool {
	select {
	case <-s.closed:
		return true
	default:
		return false
	}
}

// Close stops the server, severing live connections (watchers included),
// and waits for connection handlers.
func (s *Server) Close() {
	select {
	case <-s.closed:
	default:
		close(s.closed)
	}
	s.mu.Lock()
	s.registered.Broadcast() // a watcher waiting for a registration gives up
	s.mu.Unlock()
	s.srv.Close()
}

// dispatch handles one frame of an FD's monitor stream (registrations
// and telemetry, both one-way: no reply, so a chatty job never blocks on
// the monitor) or a client's watch request.
func (s *Server) dispatch(rc *protocol.ReplyConn, f protocol.Frame) error {
	switch f.Type {
	case protocol.TypeASRegisterReq:
		var req protocol.ASRegisterReq
		if err := protocol.Decode(f, f.Type, &req); err != nil {
			return err
		}
		s.Register(req.JobID, req.Owner, req.Server, req.App)
		return nil

	case protocol.TypeTelemetry:
		var t protocol.Telemetry
		if err := protocol.Decode(f, f.Type, &t); err != nil {
			return err
		}
		_ = s.Ingest(t) // a sample for an unknown job is counted, not answered
		return nil

	case protocol.TypeWatchReq:
		var req protocol.WatchReq
		if err := protocol.Decode(f, f.Type, &req); err != nil {
			return err
		}
		// The watch owns the rest of the connection. Its frames go out
		// unstamped: a watch request carries no ID to echo.
		s.serveWatch(rc.ReadWriter, req)
		return protocol.ErrConnDone

	default:
		return fmt.Errorf("appspector: unsupported frame %s", f.Type)
	}
}

// serveWatch streams history and live telemetry to one client.
func (s *Server) serveWatch(conn io.Writer, req protocol.WatchReq) {
	if s.verify != nil {
		if _, err := s.verify(req.Token); err != nil {
			_ = protocol.WriteErrorFrom(conn, fmt.Errorf("appspector: %w", err))
			return
		}
	}
	s.met.watchReq.Inc()
	hist, live, err := s.subscribe(req.JobID, req.FromStart)
	if err != nil {
		_ = protocol.WriteErrorFrom(conn, err)
		return
	}
	if live != nil {
		defer s.unsubscribe(req.JobID, live)
	}
	if err := protocol.WriteFrame(conn, protocol.TypeWatchOK, protocol.WatchOK{JobID: req.JobID}); err != nil {
		return
	}
	for _, t := range hist {
		if err := protocol.WriteFrame(conn, protocol.TypeTelemetry, t); err != nil {
			return
		}
	}
	if live != nil {
		for t := range live {
			if err := protocol.WriteFrame(conn, protocol.TypeTelemetry, t); err != nil {
				return
			}
		}
	}
	_ = protocol.WriteFrame(conn, protocol.TypeWatchEnd, nil)
}
