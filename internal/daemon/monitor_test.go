package daemon

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"faucets/internal/appspector"
	"faucets/internal/protocol"
)

// These tests pin the monitor stream's contract: everything the daemon
// tells AppSpector leaves through one ordered, bounded, best-effort
// queue, and nothing on a job's path waits for the monitor.

// silentMonitor is an AppSpector stand-in that accepts connections and
// never reads or replies.
func silentMonitor(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		l.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})
	return l.Addr().String()
}

// serveMonitor starts a real AppSpector on addr ("" = any port).
func serveMonitor(t *testing.T, addr string) (*appspector.Server, string) {
	t.Helper()
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	as := appspector.NewServer(nil)
	go as.Serve(l)
	t.Cleanup(as.Close)
	return as, l.Addr().String()
}

// awaitDone waits until the monitor has seen the job through to its
// terminal sample.
func awaitDone(t *testing.T, as *appspector.Server, id string) []protocol.Telemetry {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		hist, done, err := as.Snapshot(id)
		if err == nil && done {
			return hist
		}
		if time.Now().After(deadline) {
			t.Fatalf("monitor never saw %s end: %d samples, done=%v, err=%v", id, len(hist), done, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSilentMonitorNeverBlocksTheDaemon: against a monitor that accepts
// and then goes silent, a submission is acknowledged at once (the parent
// held SubmitOK for RPCTimeout), the queue fills to its bound and then
// drops and counts instead of waiting, and Close returns promptly even
// with the writer parked in a write nobody reads.
func TestSilentMonitorNeverBlocksTheDaemon(t *testing.T) {
	const rpcTimeout = 3 * time.Second
	d, addr := startDaemon(t, Config{AppSpectorAddr: silentMonitor(t), RPCTimeout: rpcTimeout})
	conn := dial(t, addr)

	start := time.Now()
	var sub protocol.SubmitOK
	err := protocol.Call(conn, protocol.TypeSubmitReq,
		protocol.SubmitReq{User: "alice", JobID: "j1", Contract: contract(16)}, protocol.TypeSubmitOK, &sub)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > rpcTimeout/3 {
		t.Fatalf("SubmitOK took %v against a silent monitor (RPCTimeout %v)", took, rpcTimeout)
	}

	// Far more than the socket buffers and the queue hold together.
	sample := protocol.Telemetry{JobID: "j1", State: "running", Output: strings.Repeat("x", 1024)}
	start = time.Now()
	for i := 0; i < 64<<10; i++ {
		d.mu.Lock()
		d.monitor(protocol.TypeTelemetry, sample)
		d.mu.Unlock()
	}
	if took := time.Since(start); took > rpcTimeout/3 {
		t.Fatalf("enqueueing took %v: something waited for the monitor", took)
	}
	if d.met.monitorDrops.Value() == 0 {
		t.Fatal("64 MiB offered to a silent monitor and faucets_daemon_monitor_drops_total never moved")
	}
	d.mu.Lock()
	queued := len(d.monitorQ)
	d.mu.Unlock()
	if queued > monitorBacklog+2048 {
		t.Fatalf("queue holds %d bytes, bound %d", queued, monitorBacklog)
	}

	start = time.Now()
	d.Close()
	if took := time.Since(start); took > rpcTimeout/3 {
		t.Fatalf("Close took %v with the stream's writer blocked (RPCTimeout %v)", took, rpcTimeout)
	}
}

// TestMonitorStreamRedials: a monitor that is down costs the frames
// offered meanwhile and nothing else — no goroutine per failed dial, no
// retry timer — and once it is up, jobs submitted from then on are
// announced and sampled over a fresh connection.
func TestMonitorStreamRedials(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	asAddr := l.Addr().String()
	l.Close() // nothing listens there now

	d, _ := startDaemon(t, Config{AppSpectorAddr: asAddr})
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("lost-%d", i)
		submitJob(t, d, id, narrow(1))
		for {
			d.mu.Lock()
			finished := d.settledIDs[id]
			d.mu.Unlock()
			if finished {
				break
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for d.met.monitorDrops.Value() < 40 { // a registration and a final sample each, at least
		if time.Now().After(deadline) {
			t.Fatalf("monitor down for 20 jobs, drops=%d", d.met.monitorDrops.Value())
		}
		time.Sleep(time.Millisecond)
	}
	// Let the writer finish refusing what the lost jobs queued (a refused
	// loopback dial takes microseconds), so none of it reaches the monitor
	// below. A dial in flight has a helper goroutine of its own; a leak
	// stays.
	for queued := 1; queued > 0 || runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("monitor down: %d frames still queued, goroutines %d -> %d", queued, before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
		d.mu.Lock()
		queued = d.monitorFrames
		d.mu.Unlock()
	}

	as, _ := serveMonitor(t, asAddr)
	submitJob(t, d, "seen", narrow(20))
	hist := awaitDone(t, as, "seen")
	if len(hist) < 2 || hist[len(hist)-1].State != "finished" {
		t.Fatalf("history after the redial: %+v", hist)
	}
	if n := as.Metrics.Counter("faucets_appspector_unknown_job_samples_total", "").Value(); n != 0 {
		t.Fatalf("%d samples arrived ahead of their registration", n)
	}
}

// TestRecoveredJobsAreReannounced: a job restarted from the journal is
// registered with the monitor again — which may be a different process
// from the one that heard the first announcement — so its samples are
// not refused as an unknown job's.
func TestRecoveredJobsAreReannounced(t *testing.T) {
	as, asAddr := serveMonitor(t, "")
	dir := t.TempDir()
	crashed, err := New(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	submitJob(t, crashed, "j-recover", narrow(20))
	// Crash: abandoned without Close, never started, no monitor configured.

	cfg := durableCfg(dir)
	cfg.AppSpectorAddr = asAddr
	startDaemon(t, cfg)
	hist := awaitDone(t, as, "j-recover")
	if hist[len(hist)-1].State != "finished" {
		t.Fatalf("history of the recovered job: %+v", hist)
	}
	if jobs := as.Jobs(); len(jobs) != 1 || jobs[0].Owner != "alice" || jobs[0].Server != "turing" || jobs[0].App != "synth" {
		t.Fatalf("re-announcement lost the job's identity: %+v", jobs)
	}
	if n := as.Metrics.Counter("faucets_appspector_unknown_job_samples_total", "").Value(); n != 0 {
		t.Fatalf("%d samples of the recovered job were refused as unknown", n)
	}
}
