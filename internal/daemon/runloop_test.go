package daemon

import (
	"fmt"
	"net"
	"sort"
	"testing"
	"time"

	"faucets/internal/job"
	"faucets/internal/protocol"
	"faucets/internal/qos"
	"faucets/internal/scheduler"
	"faucets/internal/telemetry"
)

// These tests pin the event-driven execution loop: it wakes for the
// scheduler's next event and for nothing else. Where a property can be
// counted (wakeups, spans) it is counted; only the finish lag itself is
// timed, against a bound a loop that missed a re-arm exceeds twice over.

// lagBound is the per-job finish-lag limit of the scenario tests below:
// one generous bound, several times what a busy two-core host adds and
// less than half of what the cheapest missed re-arm costs (the phase
// test's, 70 ms; the others never finish at all).
const lagBound = 30 * time.Millisecond

// medianLag runs a finish-lag scenario three times, on a fresh daemon
// each, and returns the median: a host stall of tens of milliseconds
// lands in one attempt, a loop that missed a re-arm is late in all three.
// Whatever an attempt can count (wakeups, spans) it asserts itself.
func medianLag(attempt func() time.Duration) time.Duration {
	lags := []time.Duration{attempt(), attempt(), attempt()}
	sort.Slice(lags, func(a, b int) bool { return lags[a] < lags[b] })
	return lags[1]
}

// loopDaemon boots a standalone daemon (64 PE, equipartition, one wall
// millisecond per virtual second) with a tracer to read spans back from.
func loopDaemon(t *testing.T, cfg Config) (*Daemon, *telemetry.Tracer) {
	t.Helper()
	tr := telemetry.NewTracer(0)
	cfg.Tracer = tr
	d, _ := startDaemon(t, cfg)
	return d, tr
}

func submitJob(t *testing.T, d *Daemon, id string, c *qos.Contract) {
	t.Helper()
	commitJob(t, d, "alice", id, 1)
	if err := d.submit(protocol.SubmitReq{User: "alice", JobID: id, Contract: c}); err != nil {
		t.Fatalf("submit %s: %v", id, err)
	}
}

// spans returns the job's events named name.
func spans(tr *telemetry.Tracer, id, name string) []telemetry.SpanEvent {
	var out []telemetry.SpanEvent
	for _, ev := range tr.Events(id) {
		if ev.Name == name {
			out = append(out, ev)
		}
	}
	return out
}

// awaitFinish waits for the job's finish span and returns how long after
// the scheduler's completion instant it was recorded.
func awaitFinish(t *testing.T, d *Daemon, tr *telemetry.Tracer, id string) time.Duration {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for len(spans(tr, id, telemetry.SpanFinish)) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished (wakeups=%d)", id, d.met.wakeups.Value())
		}
		time.Sleep(200 * time.Microsecond)
	}
	fin := spans(tr, id, telemetry.SpanFinish)
	if len(fin) != 1 {
		t.Fatalf("job %s finished %d times", id, len(fin))
	}
	d.mu.Lock()
	finishTime := d.jobs[id].j.FinishTime
	d.mu.Unlock()
	completed := d.epoch.Add(time.Duration(finishTime / d.cfg.TimeScale * float64(time.Second)))
	return fin[0].Wall.Sub(completed)
}

// wide is a contract that takes the whole 64-PE machine when alone and
// runs for ms wall milliseconds there.
func wide(ms float64) *qos.Contract {
	return &qos.Contract{App: "synth", MinPE: 2, MaxPE: 64, Work: 64 * ms}
}

// narrow runs for ms wall milliseconds on its 16-PE maximum.
func narrow(ms float64) *qos.Contract { return contract(16 * ms) }

// TestRunLoopWakesOnlyForEvents: an idle daemon never wakes, and a job
// costs two wakeups, its submit kick and its completion timer — however
// many finished jobs the daemon still holds, because a pass walks the
// running set and not d.jobs.
func TestRunLoopWakesOnlyForEvents(t *testing.T) {
	for _, resident := range []int{0, 10000} {
		t.Run(fmt.Sprintf("resident=%d", resident), func(t *testing.T) {
			d, tr := loopDaemon(t, Config{})
			d.mu.Lock()
			for i := 0; i < resident; i++ {
				j := job.New(job.ID(fmt.Sprintf("old-%d", i)), "alice", narrow(1), 0)
				if err := j.Start(0, 16, 1); err != nil || !j.AdvanceTo(2) {
					t.Fatalf("building a finished job: %v", err)
				}
				d.jobs[string(j.ID)] = admission{j: j, settled: true}
			}
			d.mu.Unlock()

			time.Sleep(100 * time.Millisecond)
			if n := d.met.wakeups.Value(); n != 0 {
				t.Fatalf("idle daemon woke %d times in 100ms", n)
			}
			const n = 20
			for i := 0; i < n; i++ {
				id := fmt.Sprintf("j%d", i)
				submitJob(t, d, id, narrow(1))
				awaitFinish(t, d, tr, id)
			}
			if got := d.met.wakeups.Value(); got < n || got > 2*n+2 {
				t.Fatalf("%d sequential jobs cost %d wakeups, want %d..%d", n, got, n, 2*n+2)
			}
			before := d.met.wakeups.Value()
			time.Sleep(20 * time.Millisecond)
			if after := d.met.wakeups.Value(); after != before {
				t.Fatalf("daemon kept waking after its last job finished: %d -> %d", before, after)
			}
		})
	}
}

// TestRunLoopFinishLag: 50 overlapping jobs of 1–20 ms are each noticed
// once, and half of them within finishLagMedian of completing. Under the
// fixed 5 ms tick the median was 2.5 ms by construction, and armed on a
// time.Timer it was ≈0.5 ms: an idle Go process sleeps in epoll_wait,
// whose timeout is whole milliseconds, so a runtime timer overshoots by
// up to one. The loop's timerfd wakes that epoll_wait when it expires
// (median ≈0.12 ms); the race detector's own overhead keeps the raced
// build to the old 2 ms bound.
func TestRunLoopFinishLag(t *testing.T) {
	d, tr := loopDaemon(t, Config{})
	const n = 50
	for i := 0; i < n; i++ {
		submitJob(t, d, fmt.Sprintf("j%d", i), narrow(float64(i*7%20+1)))
		time.Sleep(time.Millisecond)
	}
	lags := make([]time.Duration, n)
	for i := range lags {
		lags[i] = awaitFinish(t, d, tr, fmt.Sprintf("j%d", i))
	}
	sort.Slice(lags, func(a, b int) bool { return lags[a] < lags[b] })
	t.Logf("finish lag p50=%v p90=%v max=%v over %d jobs, %d wakeups", lags[n/2], lags[n*9/10], lags[n-1], n, d.met.wakeups.Value())
	if lags[0] < 0 {
		t.Fatalf("a job was reported finished %v before it completed", -lags[0])
	}
	if got := d.met.jobsFinished.Value(); got != n {
		t.Fatalf("jobs_finished_total=%d, want %d", got, n)
	}
	if got := d.met.finishLag.Count(); got != n {
		t.Fatalf("finish_lag_seconds has %d observations, want %d", got, n)
	}
	if median := lags[n/2]; median >= finishLagMedian {
		t.Fatalf("median finish lag %v, want < %v (max %v)", median, finishLagMedian, lags[n-1])
	}
}

// TestRunLoopRearmsWhenCompletionMovesLater: a second job halves the
// first one's allocation, so the instant the timer was armed for is no
// longer a completion. The loop re-arms for the later one; it neither
// spins until then nor sleeps through it.
func TestRunLoopRearmsWhenCompletionMovesLater(t *testing.T) {
	lag := medianLag(func() time.Duration {
		d, tr := loopDaemon(t, Config{})
		// Long enough that a 50 ms stall in the sleep cannot finish a
		// before b arrives.
		submitJob(t, d, "a", wide(120))
		time.Sleep(5 * time.Millisecond)
		submitJob(t, d, "b", wide(120))
		lagA, lagB := awaitFinish(t, d, tr, "a"), awaitFinish(t, d, tr, "b")
		// Two submit kicks and two completions; a stale fire or two is
		// tolerated, a spin is thousands.
		if got := d.met.wakeups.Value(); got > 6 {
			t.Fatalf("two jobs cost %d wakeups, want <= 6", got)
		}
		if len(spans(tr, "a", telemetry.SpanShrink)) == 0 {
			t.Fatalf("job a finished before b arrived: its completion never moved")
		}
		return max(lagA, lagB)
	})
	if lag > lagBound {
		t.Fatalf("median finish lag %v, want <= %v", lag, lagBound)
	}
}

// TestRunLoopRearmsAfterKill: the timer is armed for the earliest
// completion; when that job is killed the loop must arm for the next.
func TestRunLoopRearmsAfterKill(t *testing.T) {
	lag := medianLag(func() time.Duration {
		d, tr := loopDaemon(t, Config{})
		// Long enough that a 50 ms stall in the sleep cannot finish the
		// short job before it is killed.
		submitJob(t, d, "short", narrow(120))
		submitJob(t, d, "long", narrow(160))
		time.Sleep(5 * time.Millisecond)
		state, err := d.kill(protocol.KillReq{User: "alice", JobID: "short"})
		if err != nil {
			t.Fatal(err)
		}
		lag := awaitFinish(t, d, tr, "long")
		if got := d.met.wakeups.Value(); got > 6 {
			t.Fatalf("two submits, a kill and a completion cost %d wakeups, want <= 6", got)
		}
		if state != job.Killed.String() {
			t.Fatalf("job short was %s by the time it was killed", state)
		}
		if n := len(spans(tr, "short", telemetry.SpanFinish)); n != 0 {
			t.Fatalf("killed job recorded %d finish spans", n)
		}
		return lag
	})
	if lag > lagBound {
		t.Fatalf("median finish lag %v after the earlier job was killed, want <= %v", lag, lagBound)
	}
}

// TestRunLoopWakesAtPhaseBoundary: a job confined to 2 PEs by its first
// phase expands to 16 in its second, which moves its completion from
// ≈100 ms to ≈30 ms. The scheduler reallocates at a boundary only if it
// is advanced at it, so NextCompletion reports the boundary and the loop
// wakes there; armed for the 100 ms completion alone it would notice the
// finish 70 ms late.
func TestRunLoopWakesAtPhaseBoundary(t *testing.T) {
	lag := medianLag(func() time.Duration {
		d, tr := loopDaemon(t, Config{})
		c := contract(200)
		c.Phases = []qos.Phase{
			{Name: "setup", Work: 40, MinPE: 2, MaxPE: 2},
			{Name: "solve", Work: 160, MinPE: 2, MaxPE: 16},
		}
		submitJob(t, d, "phased", c)
		lag := awaitFinish(t, d, tr, "phased")
		expand := spans(tr, "phased", telemetry.SpanExpand)
		if len(expand) != 1 || expand[0].Detail != "2 -> 16 PEs" {
			t.Fatalf("expand spans = %+v, want one \"2 -> 16 PEs\"", expand)
		}
		// The submit kick, the boundary and the completion.
		if got := d.met.wakeups.Value(); got > 5 {
			t.Fatalf("one two-phase job cost %d wakeups, want <= 5", got)
		}
		return lag
	})
	if lag > lagBound {
		t.Fatalf("median finish lag %v, want <= %v", lag, lagBound)
	}
}

// TestRunLoopSeesAnExpandItCameLateFor: the loop's first pass over a job
// may come after the job's first reallocation. Here the daemon starts
// serving only once its clock has passed the 2 → 16 PE boundary of a job
// submitted before, so the first pass finds the job at 16 PEs already and
// must still trace the expand, against the PEs the job started on.
func TestRunLoopSeesAnExpandItCameLateFor(t *testing.T) {
	tr := telemetry.NewTracer(0)
	info := protocol.ServerInfo{Spec: spec("turing", 64), Apps: []string{"synth"}}
	d, err := New(Config{Info: info, Scheduler: scheduler.NewEquipartition(info.Spec, scheduler.Config{}),
		TimeScale: 1000, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	c := contract(200)
	c.Phases = []qos.Phase{
		{Name: "setup", Work: 40, MinPE: 2, MaxPE: 2},   // 20 s on 2 PEs
		{Name: "solve", Work: 160, MinPE: 2, MaxPE: 16}, // then 10 s on 16
	}
	submitJob(t, d, "phased", c)
	advance(d, 25) // past the boundary, short of the finish
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(l); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	awaitFinish(t, d, tr, "phased")
	expand := spans(tr, "phased", telemetry.SpanExpand)
	if len(expand) != 1 || expand[0].Detail != "2 -> 16 PEs" {
		t.Fatalf("expand spans = %+v, want one \"2 -> 16 PEs\"", expand)
	}
}

// heldDaemon is a 64-PE equipartition daemon, not yet serving, whose
// clock stands still but for advance, with a tracer to read spans from.
func heldDaemon(t *testing.T) (*Daemon, *telemetry.Tracer) {
	t.Helper()
	tr := telemetry.NewTracer(0)
	info := protocol.ServerInfo{Spec: spec("turing", 64), Apps: []string{"synth"}}
	d, err := New(Config{Info: info, Scheduler: scheduler.NewEquipartition(info.Spec, scheduler.Config{}),
		TimeScale: 1e-6, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d, tr
}

// serve starts d, whose loop then makes its first pass, and waits for
// that pass to trace job id's span named name.
func serve(t *testing.T, d *Daemon, tr *telemetry.Tracer, id, name string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(l); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(spans(tr, id, name)) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("job %s never traced %s", id, name)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestQueuedJobTracesItsRealStart: a job that queues at admission is
// traced starting when it starts, on the PEs it starts on — not at its
// admission, on none.
func TestQueuedJobTracesItsRealStart(t *testing.T) {
	d, tr := heldDaemon(t)
	submitJob(t, d, "big", &qos.Contract{App: "synth", MinPE: 64, MaxPE: 64, Work: 64 * 10}) // 10 s
	submitJob(t, d, "next", contract(16*100))                                                // queued behind it
	if got := spans(tr, "next", telemetry.SpanStart); len(got) != 0 {
		t.Fatalf("a queued job traced its start at admission: %+v", got)
	}
	advance(d, 15) // past big's finish
	serve(t, d, tr, "next", telemetry.SpanStart)
	start, fin := spans(tr, "next", telemetry.SpanStart), spans(tr, "big", telemetry.SpanFinish)
	if len(start) != 1 || start[0].Detail != "started on turing with 16 PEs" {
		t.Fatalf("next's start spans = %+v, want one \"started on turing with 16 PEs\"", start)
	}
	if len(fin) != 1 || start[0].Wall.Before(fin[0].Wall) {
		t.Fatalf("next's start %+v was traced before big's finish %+v", start, fin)
	}
}

// TestExpandNoPassSawIsTraced: a job that expands at its phase boundary
// and finishes before any pass of the loop runs still has its expand
// traced, once, ahead of its finish: the core recorded both when they
// happened.
func TestExpandNoPassSawIsTraced(t *testing.T) {
	d, tr := heldDaemon(t)
	c := contract(200)
	c.Phases = []qos.Phase{
		{Name: "setup", Work: 40, MinPE: 2, MaxPE: 2},   // 20 s on 2 PEs
		{Name: "solve", Work: 160, MinPE: 2, MaxPE: 16}, // then 10 s on 16
	}
	submitJob(t, d, "phased", c)
	advance(d, 35) // past the boundary and the finish
	serve(t, d, tr, "phased", telemetry.SpanFinish)
	var names []string
	for _, ev := range tr.Events("phased") {
		names = append(names, ev.Name)
	}
	want := []string{telemetry.SpanContract, telemetry.SpanStart, telemetry.SpanExpand, telemetry.SpanFinish}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("spans %v, want %v", names, want)
	}
	if expand := spans(tr, "phased", telemetry.SpanExpand); expand[0].Detail != "2 -> 16 PEs" {
		t.Fatalf("expand span %+v, want \"2 -> 16 PEs\"", expand)
	}
}

// TestRunLoopArmsAfterRecovery: jobs restarted from the journal run to
// completion on a daemon nobody sends a frame to.
func TestRunLoopArmsAfterRecovery(t *testing.T) {
	lag := medianLag(func() time.Duration {
		dir := t.TempDir()
		crashed, err := New(durableCfg(dir))
		if err != nil {
			t.Fatal(err)
		}
		submitJob(t, crashed, "j-recover", narrow(30))
		// Crash: abandoned without Close, never started.

		d, tr := loopDaemon(t, durableCfg(dir))
		lag := awaitFinish(t, d, tr, "j-recover")
		if got := d.met.wakeups.Value(); got < 1 || got > 3 {
			t.Fatalf("recovered job cost %d wakeups, want 1..3", got)
		}
		return lag
	})
	if lag > lagBound {
		t.Fatalf("median finish lag %v, want <= %v", lag, lagBound)
	}
}

// TestProgressIsBookedBetweenEvents: the loop advances the scheduler only
// at its events, so whatever reads a running job's progress in between
// must book it first. Halfway through a lone job a status reply shows it
// half done, and a bid has the scheduler estimate against that, not
// against a job that has not started.
func TestProgressIsBookedBetweenEvents(t *testing.T) {
	const wallMS = 400
	// booked asserts the job's booked fraction lies between the elapsed
	// fractions read just before and just after it was booked.
	booked := func(t *testing.T, d *Daemon, read func() float64) {
		t.Helper()
		d.mu.Lock()
		started := d.jobs["lone"].j.StartTime
		d.mu.Unlock()
		time.Sleep(wallMS / 2 * time.Millisecond)
		lo := (d.Now() - started) / wallMS
		got := read()
		hi := (d.Now() - started) / wallMS
		if got < lo-0.01 || got > hi+0.01 {
			t.Fatalf("progress %.3f halfway through the job, want %.3f..%.3f", got, lo, hi)
		}
		if n := d.met.wakeups.Value(); n > 2 {
			t.Fatalf("%d wakeups by mid-run, want the submit kick and no polling", n)
		}
	}
	t.Run("status", func(t *testing.T) {
		d, addr := startDaemon(t, Config{})
		submitJob(t, d, "lone", narrow(wallMS))
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		booked(t, d, func() float64 {
			var st protocol.StatusOK
			if err := protocol.Call(conn, protocol.TypeStatusReq, protocol.StatusReq{JobID: "lone"}, protocol.TypeStatusOK, &st); err != nil {
				t.Fatal(err)
			}
			return st.Progress
		})
	})
	t.Run("bid", func(t *testing.T) {
		d, _ := startDaemon(t, Config{})
		submitJob(t, d, "lone", narrow(wallMS))
		booked(t, d, func() float64 {
			if _, ok := d.makeBid(narrow(10)); !ok {
				t.Fatal("bid declined")
			}
			d.mu.Lock()
			defer d.mu.Unlock()
			j := d.jobs["lone"].j
			return j.DoneWork() / j.Contract.Work
		})
	})
}
