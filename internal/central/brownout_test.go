package central

import (
	"testing"
	"time"

	"faucets/internal/accounting"
	"faucets/internal/db"
	"faucets/internal/protocol"
)

// TestSetBrownoutWidensAndRestoresGroupWindow: entering brownout widens
// the WAL group-commit window (4×, floored at 5ms) so fsyncs amortize;
// exit restores what the operator configured.
func TestSetBrownoutWidensAndRestoresGroupWindow(t *testing.T) {
	store, err := db.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := NewWithDB(accounting.Dollars, store)
	defer s.Close()
	store.SetGroupWindow(2 * time.Millisecond)

	s.SetBrownout(true)
	if !s.Brownout() {
		t.Fatal("brownout flag not set")
	}
	if w := store.GroupWindow(); w != 8*time.Millisecond {
		t.Fatalf("browned-out window = %v, want 8ms (4×2ms)", w)
	}
	s.SetBrownout(true) // idempotent: must not re-save the widened window
	s.SetBrownout(false)
	if w := store.GroupWindow(); w != 2*time.Millisecond {
		t.Fatalf("restored window = %v, want 2ms", w)
	}
	if got := s.met.brownoutTrans.Value(); got != 2 {
		t.Fatalf("transitions = %d, want 2 (enter + exit)", got)
	}
}

// TestBrownoutWeatherServesStale: while browned out, the weather cache
// keeps serving the last computed report through invalidations the
// fresh path would honor — degraded freshness instead of fleet scans.
func TestBrownoutWeatherServesStale(t *testing.T) {
	s := New(accounting.Dollars)
	defer s.Close()
	if err := s.RegisterDaemon(info("a", 8, 512)); err != nil {
		t.Fatal(err)
	}
	fresh := s.Weather()
	if fresh.Servers != 1 {
		t.Fatalf("fresh report = %+v, want 1 server", fresh)
	}

	s.SetBrownout(true)
	s.Deregister("a") // invalidates the cache
	if got := s.Weather(); got.Servers != 1 {
		t.Fatalf("browned-out report = %+v, want the stale cached view", got)
	}
	s.SetBrownout(false)
	if got := s.Weather(); got.Servers != 0 {
		t.Fatalf("post-brownout report = %+v, want a fresh scan", got)
	}
}

// TestBrownoutMonitorEngagesOnFsyncPressure: a durable settlement pushes
// the fsync EWMA above a threshold of one nanosecond, so the monitor
// must engage brownout on its next tick.
func TestBrownoutMonitorEngagesOnFsyncPressure(t *testing.T) {
	store, err := db.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := NewWithDB(accounting.Dollars, store)
	defer s.Close()
	s.BrownoutFsync = time.Nanosecond
	s.StartBrownoutMonitor(5 * time.Millisecond)

	if err := s.Settle(protocol.SettleReq{
		JobID: "j1", User: "u", Server: "srv", App: "a",
		MinPE: 1, MaxPE: 4, Price: 1, CPUSeconds: 1,
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for !s.Brownout() {
		if time.Now().After(deadline) {
			t.Fatalf("monitor never engaged brownout; pressure=%+v", store.Pressure())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBrownoutMonitorExitsWithHysteresis: with pressure calm (well under
// half the queue threshold) the monitor lifts a manually engaged
// brownout only after several consecutive calm ticks.
func TestBrownoutMonitorExitsWithHysteresis(t *testing.T) {
	store, err := db.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := NewWithDB(accounting.Dollars, store)
	defer s.Close()
	s.BrownoutQueue = 1000 // queue is empty: always calm
	s.SetBrownout(true)
	s.StartBrownoutMonitor(5 * time.Millisecond)

	deadline := time.Now().Add(2 * time.Second)
	for s.Brownout() {
		if time.Now().After(deadline) {
			t.Fatal("monitor never lifted brownout despite calm pressure")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
