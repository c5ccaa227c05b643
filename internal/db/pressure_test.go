package db

import (
	"errors"
	"testing"
	"time"
)

var errDiskFull = errors.New("injected disk full")

// TestFailWALAppendsSurfacesAndRecovers: an armed disk-full injection
// must surface through CommitBatch exactly like a real append failure,
// and the database must serve writes normally once the fault clears.
func TestFailWALAppendsSurfacesAndRecovers(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	d.FailWALAppends(1, errDiskFull)
	d.BeginBatch()
	d.AddRevenue("turing", 5)
	if err := d.CommitBatch(); !errors.Is(err, errDiskFull) {
		t.Fatalf("CommitBatch under disk-full = %v, want injected error", err)
	}

	// Fault cleared: the same settlement shape must go durable.
	d.BeginBatch()
	d.AddRevenue("turing", 5)
	if err := d.CommitBatch(); err != nil {
		t.Fatalf("CommitBatch after fault cleared: %v", err)
	}

	// On an ephemeral database the WAL knobs are no-ops: nothing to arm,
	// nothing to fail.
	eph := New()
	eph.SetGroupWindow(time.Millisecond)
	eph.FailWALAppends(1, errDiskFull)
	eph.BeginBatch()
	eph.AddRevenue("turing", 5)
	if err := eph.CommitBatch(); err != nil {
		t.Fatalf("ephemeral CommitBatch with a fault armed: %v", err)
	}
}
