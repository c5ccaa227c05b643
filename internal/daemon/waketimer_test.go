package daemon

import (
	"net"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"faucets/internal/protocol"
	"faucets/internal/scheduler"
)

func newTestWakeTimer(t *testing.T) (*wakeTimer, *sync.WaitGroup) {
	t.Helper()
	var wg sync.WaitGroup
	w, err := newWakeTimer(&wg)
	if err != nil {
		t.Fatal(err)
	}
	return w, &wg
}

// fires counts the expiries w delivers within window.
func fires(w *wakeTimer, window time.Duration) int {
	n := 0
	deadline := time.After(window)
	for {
		select {
		case <-w.C:
			n++
		case <-deadline:
			return n
		}
	}
}

// TestWakeTimerRearmEarlierFiresOnce: re-armed for an earlier instant,
// the timer fires there, once; the instant it was first armed for
// passes without a second fire.
func TestWakeTimerRearmEarlierFiresOnce(t *testing.T) {
	w, _ := newTestWakeTimer(t)
	defer w.Close()
	w.Reset(30 * time.Millisecond)
	w.Stop()
	w.Reset(time.Millisecond)
	if n := fires(w, 60*time.Millisecond); n != 1 {
		t.Fatalf("re-armed earlier: %d fires, want 1", n)
	}
}

// TestWakeTimerStopDisarms: a stopped timer does not fire at, or 10 ms
// after, the instant it was armed for.
func TestWakeTimerStopDisarms(t *testing.T) {
	w, _ := newTestWakeTimer(t)
	defer w.Close()
	// Far enough out that a stalled test cannot let it expire before Stop.
	const armed = 20 * time.Millisecond
	w.Reset(armed)
	w.Stop()
	if n := fires(w, armed+10*time.Millisecond); n != 0 {
		t.Fatalf("stopped timer fired %d times", n)
	}
}

// TestWakeTimerResetZeroFiresAtOnce: a due instant already past arms the
// timer to fire at once, not disarms it.
func TestWakeTimerResetZeroFiresAtOnce(t *testing.T) {
	w, _ := newTestWakeTimer(t)
	defer w.Close()
	for _, d := range []time.Duration{0, -time.Second} {
		w.Stop()
		w.Reset(d)
		select {
		case <-w.C:
		case <-time.After(time.Second):
			t.Fatalf("Reset(%v) never fired", d)
		}
	}
}

// TestWakeTimerCloseEndsReader: Close ends whatever goroutine the timer
// reads its expiries on, armed or not.
func TestWakeTimerCloseEndsReader(t *testing.T) {
	for _, armed := range []bool{false, true} {
		w, wg := newTestWakeTimer(t)
		if armed {
			w.Reset(time.Hour)
		}
		w.Close()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("armed=%v: reader still running after Close", armed)
		}
	}
}

// TestDaemonStartCloseLeaksNothing: a started daemon's goroutines and
// fds, the run loop's timer and its reader among them, are all gone
// once Close returns.
func TestDaemonStartCloseLeaksNothing(t *testing.T) {
	startClose := func() {
		info := protocol.ServerInfo{Spec: spec("turing", 64), Apps: []string{"synth"}}
		d, err := New(Config{Info: info, Scheduler: scheduler.NewEquipartition(info.Spec, scheduler.Config{})})
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Start(l); err != nil {
			t.Fatal(err)
		}
		d.Close()
	}
	// /proc/self/fd lists one more entry, the directory being read.
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			return -1 // no procfs: goroutines only
		}
		return len(ents)
	}
	startClose() // the netpoller's own fds, created once per process
	g0, fd0 := runtime.NumGoroutine(), fds()
	for range 20 {
		startClose()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		g, fd := runtime.NumGoroutine(), fds()
		if g <= g0 && fd <= fd0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after 20 daemons started and closed: goroutines %d -> %d, fds %d -> %d", g0, g, fd0, fd)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
