package db

import (
	"errors"
	"testing"
)

var errDiskFull = errors.New("injected disk full")

// TestFailWALAppendsSurfacesAndRecovers: an armed disk-full injection
// must surface through Update exactly like a real append failure, and
// the database must serve writes normally once the fault clears.
func TestFailWALAppendsSurfacesAndRecovers(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	d.FailWALAppends(1, errDiskFull)
	if err := settleTx(d, "j-1"); !errors.Is(err, errDiskFull) || !errors.Is(err, ErrNotDurable) {
		t.Fatalf("settle under disk-full = %v, want the injected error as ErrNotDurable", err)
	}

	// Fault cleared: the same settlement shape must go durable.
	if err := settleTx(d, "j-2"); err != nil {
		t.Fatalf("settle after fault cleared: %v", err)
	}

	// On an ephemeral database the WAL knobs are no-ops: nothing to arm,
	// nothing to fail.
	eph := New()
	eph.FailWALAppends(1, errDiskFull)
	if err := settleTx(eph, "j-1"); err != nil {
		t.Fatalf("ephemeral settle with a fault armed: %v", err)
	}
}

// TestShortWriteDoesNotSwallowTheNextAck: a flush that fails after
// writing part of its bytes leaves them in the WAL. The next
// acknowledged settlement must still be recoverable — appended behind
// those bytes, replay would cut it off with them — and the failed one,
// applied in memory, must be charged exactly once when it is redelivered.
func TestShortWriteDoesNotSwallowTheNextAck(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := settleTx(d, "job-0"); err != nil {
		t.Fatal(err)
	}

	d.FailWALAppends(1, errDiskFull)
	if err := settleTx(d, "job-A"); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("settle A on a short write = %v, want ErrNotDurable", err)
	}
	if err := settleTx(d, "job-B"); err != nil {
		t.Fatalf("settle B behind the failed flush = %v, want it acknowledged", err)
	}

	rec, err := Open(crashCopy(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if !rec.Settled("job-B") {
		t.Fatal("acknowledged settle B lost: it was appended behind the torn bytes")
	}
	if got := rec.Credits("payee"); got != 3 {
		t.Fatalf("payee recovered as %v, want 3 (job-0, A and B once each)", got)
	}

	// A's redelivery finds it settled, charges nothing, and is acked.
	if err := settleTx(d, "job-A"); err != nil {
		t.Fatalf("redelivered settle A: %v", err)
	}
	if got := d.Credits("payee"); got != 3 {
		t.Fatalf("payee = %v after A's redelivery, want 3 (A charged once)", got)
	}
}
