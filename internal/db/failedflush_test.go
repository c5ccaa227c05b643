package db

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"faucets/internal/jsonl"
)

// heldFile is a WAL file whose next write, once armed, waits first.
type heldFile struct {
	jsonl.File
	mu   sync.Mutex
	hold func()
}

func (f *heldFile) Write(p []byte) (int, error) {
	f.mu.Lock()
	hold := f.hold
	f.hold = nil
	f.mu.Unlock()
	if hold != nil {
		hold()
	}
	return f.File.Write(p)
}

// holdWrite arms f: the next flush's leader stops just before its write,
// closes entered and waits for release.
func (f *heldFile) holdWrite() (entered, release chan struct{}) {
	entered, release = make(chan struct{}), make(chan struct{})
	f.mu.Lock()
	f.hold = func() { close(entered); <-release }
	f.mu.Unlock()
	return entered, release
}

// openHeld opens a durable database whose WAL is a heldFile (until a
// compaction reopens it).
func openHeld(t *testing.T, dir string) (*DB, *heldFile) {
	t.Helper()
	var held *heldFile
	open := jsonl.OpenFile
	jsonl.OpenFile = func(path string) (jsonl.File, error) {
		f, err := open(path)
		if err != nil {
			return nil, err
		}
		held = &heldFile{File: f}
		return held, nil
	}
	defer func() { jsonl.OpenFile = open }()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return d, held
}

// waitStaged waits until the WAL has handed out ticket n.
func waitStaged(t *testing.T, d *DB, n uint64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); d.wal.Last() != n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d lines staged, want %d", d.wal.Last(), n)
		}
	}
}

// TestFailedFlushWithStagedLinesReplaysToMemory: a flush fails half
// written while lines are staged behind it. Those lines fail unwritten,
// the next Update repairs the log by compaction, and writing goes on;
// after all that, the snapshot plus the WAL replay to exactly the tables
// memory holds.
func TestFailedFlushWithStagedLinesReplaysToMemory(t *testing.T) {
	dir := t.TempDir()
	d, held := openHeld(t, dir)
	for i := 0; i < 5; i++ {
		if err := settleTx(d, fmt.Sprintf("before-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	entered, release := held.holdWrite()
	d.FailWALAppends(1, errors.New("disk full"))
	const behind = 8
	base := d.wal.Last()
	errs := make(chan error, 1+behind)
	go func() { errs <- settleTx(d, "torn") }()
	<-entered
	for i := 0; i < behind; i++ {
		go func() {
			errs <- d.Update(func(tx *Tx) error {
				tx.AddCredits(fmt.Sprintf("behind-%d", i), float64(i))
				tx.MarkSettled(fmt.Sprintf("behind-%d", i), "", 0)
				return nil
			})
		}()
	}
	waitStaged(t, d, base+1+behind)
	close(release)
	for i := 0; i < 1+behind; i++ {
		if err := <-errs; err != nil && !errors.Is(err, ErrNotDurable) {
			t.Fatal(err)
		}
	}
	if err := d.wal.Broken(); err != nil {
		t.Fatalf("log still broken after the failures were answered: %v", err)
	}
	for i := 0; i < 5; i++ {
		if err := settleTx(d, fmt.Sprintf("after-%d", i)); err != nil {
			t.Fatal(err)
		}
		d.AddCredits(fmt.Sprintf("after-%d", i), 1)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if !rec.Settled("torn") || !rec.Settled("behind-7") || !rec.Settled("after-4") {
		t.Fatal("a settlement applied in memory is missing from the replay")
	}
	got, want := rec.data, d.data
	got.Seq, want.Seq = 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed tables differ from memory:\n%+v\nwant\n%+v", got, want)
	}
}
