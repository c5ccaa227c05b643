package grid

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"faucets/internal/appspector"
	"faucets/internal/client"
	"faucets/internal/market"
	"faucets/internal/protocol"
	"faucets/internal/qos"
)

// These tests pin what a job's trip may expect of the monitor: nothing
// on the trip waits for it, its view of a job is never out of order, and
// a client holding SubmitOK can watch at once.

// replaceMonitor stops the grid's AppSpector and hands its address — the
// one every daemon dials — to the caller.
func replaceMonitor(t *testing.T, g *Grid) net.Listener {
	t.Helper()
	g.AppSpector.Close()
	l, err := net.Listen("tcp", g.AppSpectorAddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// quick is a job of five virtual seconds — five wall milliseconds here —
// on its 16-PE maximum.
func quick() *qos.Contract { return &qos.Contract{App: "synth", MinPE: 2, MaxPE: 16, Work: 80} }

func asCounter(g *Grid, name string) uint64 { return g.AppSpector.Metrics.Counter(name, "").Value() }

// TestSamplesNeverOvertakeRegistrations: a short job's only sample is its
// terminal one, queued by the run loop within milliseconds of the
// submission. When registrations rode the RPC pool and samples their own
// connection, 1–2% of those samples reached the monitor first and were
// refused, and the stream never ended. One ordered stream per daemon,
// fed under the daemon's lock, makes the count zero by construction.
func TestSamplesNeverOvertakeRegistrations(t *testing.T) {
	g := threeClusterGrid(t, Options{})
	const workers, each = 4, 500
	ids := make([][]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := g.Login("alice", "pw")
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			for i := 0; i < each; i++ {
				p, err := cl.Place(quick(), market.LeastCost{})
				if err == nil {
					err = cl.Start(p)
				}
				if err != nil {
					t.Errorf("worker %d job %d: %v", w, i, err)
					return
				}
				ids[w] = append(ids[w], p.JobID)
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// Every job has been acknowledged; wait for what is asserted — each
	// stream's terminal sample — and not for a counter that stands in for
	// it: a job that outlives telemetryFloor (any does, raced) emits more
	// than one sample, and a registered stream with no sample yet is not
	// counted live, so neither samples_total nor LiveJobs says "done".
	deadline := time.Now().Add(10 * time.Second)
	for _, w := range ids {
		for _, id := range w {
			for {
				_, done, err := g.AppSpector.Snapshot(id)
				if done {
					break
				}
				if time.Now().After(deadline) {
					drops := uint64(0)
					for _, d := range g.Daemons {
						drops += d.Metrics().Counter("faucets_daemon_monitor_drops_total", "").Value()
					}
					t.Fatalf("job %s: done=%v err=%v: its stream never ended (faucets_daemon_monitor_drops_total=%d)", id, done, err, drops)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}
	if n := asCounter(g, "faucets_appspector_unknown_job_samples_total"); n != 0 {
		t.Errorf("%d samples overtook their job's registration and were refused", n)
	}
	if u := g.AppSpector.Utilization(); u.LiveJobs != 0 || u.Jobs != workers*each {
		t.Errorf("monitor holds %d jobs, %d still live; want %d, none live", u.Jobs, u.LiveJobs, workers*each)
	}
}

// TestSilentMonitorDoesNotHoldATrip: with AppSpector replaced by
// something that accepts and never answers, Start returns and the job's
// settlement is on the Central Server's books in well under RPCTimeout
// (the registration used to be a blocking call inside the submit ack: a
// silent monitor held every SubmitOK for RPCTimeout), and the grid still
// closes promptly.
func TestSilentMonitorDoesNotHoldATrip(t *testing.T) {
	const rpcTimeout = 3 * time.Second
	g := threeClusterGrid(t, Options{RPCTimeout: rpcTimeout})
	l := replaceMonitor(t, g)
	held := make(chan net.Conn, 16) // accepted, kept open, never read
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			select {
			case held <- c:
			default:
				c.Close()
			}
		}
	}()
	cl, err := g.Login("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	start := time.Now()
	p, err := cl.Place(quick(), market.LeastCost{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(p); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > rpcTimeout/3 {
		t.Fatalf("Place+Start took %v against a silent monitor (RPCTimeout %v)", took, rpcTimeout)
	}
	for g.Central.DB.HistoryLen() == 0 {
		if time.Since(start) > rpcTimeout/3 {
			t.Fatalf("no settlement %v after the job was placed (RPCTimeout %v)", time.Since(start), rpcTimeout)
		}
		time.Sleep(time.Millisecond)
	}
	start = time.Now()
	g.Close()
	if took := time.Since(start); took > rpcTimeout/3 {
		t.Fatalf("Close took %v with a silent monitor", took)
	}
}

// watchThrough places, starts and at once watches n jobs back to back,
// failing on the first watch that is refused or does not end finished.
func watchThrough(t *testing.T, cl *client.Client, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		p, err := cl.Place(quick(), market.LeastCost{})
		if err == nil {
			err = cl.Start(p)
		}
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		last := ""
		err = cl.Watch(p.JobID, true, func(tm protocol.Telemetry) bool {
			last = tm.State
			return true
		})
		if err != nil || last != "finished" {
			t.Fatalf("job %d (%s): watch at once: last state %q, err %v", i, p.JobID, last, err)
		}
	}
}

// TestWatchAtOnce: the promise the nested registration call was buying —
// a client holding SubmitOK can watch its job at once — is kept by the
// watch path waiting for a registration in flight, however late the
// daemon's stream delivers it; a job that never existed is still refused.
func TestWatchAtOnce(t *testing.T) {
	t.Run("direct", func(t *testing.T) {
		g := threeClusterGrid(t, Options{})
		cl, err := g.Login("alice", "pw")
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		watchThrough(t, cl, 200)

		start := time.Now()
		err = cl.Watch("no-such-job", true, func(protocol.Telemetry) bool { return true })
		if err == nil || !strings.Contains(err.Error(), "unknown job") {
			t.Fatalf("watch on a job that never existed: err=%v", err)
		}
		if took := time.Since(start); took > 3*time.Second {
			t.Fatalf("unknown job refused only after %v", took)
		}
	})
	// The same with every daemon's stream held up 20 ms on its way: the
	// monitor moves to a new address, where the client watches, and a
	// relay on the old one — the one the daemons dial — forwards late.
	t.Run("stream delayed 20ms", func(t *testing.T) {
		g := threeClusterGrid(t, Options{})
		l := replaceMonitor(t, g)
		asl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		g.AppSpector = appspector.NewServer(g.verifyToken)
		go g.AppSpector.Serve(asl)
		go relayLate(l, asl.Addr().String(), 20*time.Millisecond)
		cl, err := g.Login("alice", "pw")
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		cl.AppSpectorAddr = asl.Addr().String()
		watchThrough(t, cl, 40)
		if n := asCounter(g, "faucets_appspector_unknown_job_samples_total"); n != 0 {
			t.Fatalf("%d samples refused behind the delayed stream", n)
		}
	})
}

// relayLate forwards every connection accepted on l to addr, holding
// each chunk back by delay.
func relayLate(l net.Listener, addr string, delay time.Duration) {
	for {
		down, err := l.Accept()
		if err != nil {
			return
		}
		go func() {
			defer down.Close()
			up, err := net.Dial("tcp", addr)
			if err != nil {
				return
			}
			defer up.Close()
			buf := make([]byte, 64<<10)
			for {
				n, err := down.Read(buf)
				if err != nil {
					return
				}
				time.Sleep(delay)
				if _, err := up.Write(buf[:n]); err != nil {
					return
				}
			}
		}()
	}
}
