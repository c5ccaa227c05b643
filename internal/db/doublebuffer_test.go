package db

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// holdWrite arms the writer's seam: the next flush's leader stops just
// before its write, closes entered and waits for release.
func holdWrite(d *DB) (entered, release chan struct{}) {
	entered, release = make(chan struct{}), make(chan struct{})
	var once sync.Once
	d.wal.cmu.Lock()
	d.wal.beforeWrite = func() { once.Do(func() { close(entered); <-release }) }
	d.wal.cmu.Unlock()
	return entered, release
}

// waitStaged waits until n lines are staged behind the held leader.
func waitStaged(t *testing.T, d *DB, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		d.wal.cmu.Lock()
		got := d.wal.npend
		d.wal.cmu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d lines staged behind the held leader, want %d", got, n)
		}
	}
}

// TestLinesStagedDuringAWriteLandWhole: while the leader writes one
// buffer, lines staged meanwhile go into the other; each lands whole, in
// sequence order, in the very next flush — over rounds that swap the two
// buffers back and forth.
func TestLinesStagedDuringAWriteLandWhole(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var mu sync.Mutex
	var flushes []int
	d.wal.cmu.Lock()
	d.wal.onSync = func(n int) { mu.Lock(); flushes = append(flushes, n); mu.Unlock() }
	d.wal.cmu.Unlock()

	const rounds, behind = 4, 12
	for r := 0; r < rounds; r++ {
		entered, release := holdWrite(d)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { defer wg.Done(); d.AddCredits(fmt.Sprintf("lead-%d", r), 1) }()
		<-entered
		for i := 0; i < behind; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Long keys: the held buffer and the one behind it must not
				// share bytes, or a line written late would be torn.
				d.AddCredits(fmt.Sprintf("r%d-%d-%s", r, i, strings.Repeat("x", 40*i)), float64(i+1))
			}()
		}
		waitStaged(t, d, behind)
		close(release)
		wg.Wait()
	}

	for i, n := range flushes {
		if want := []int{1, behind}[i%2]; n != want {
			t.Fatalf("flush sizes %v: flush %d carried %d lines, want %d", flushes, i, n, want)
		}
	}
	lines := strings.Split(strings.TrimSuffix(readFile(t, walFile(dir)), "\n"), "\n")
	if len(lines) != rounds*(1+behind) {
		t.Fatalf("%d WAL lines, want %d", len(lines), rounds*(1+behind))
	}
	for i, line := range lines {
		var rec walRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil || rec.Op != opAddCredits {
			t.Fatalf("line %d torn: %q (%v)", i+1, line, err)
		}
		if rec.Seq != uint64(i+1) {
			t.Fatalf("line %d carries seq %d: out of order", i+1, rec.Seq)
		}
		if d.Credits(rec.Key) != rec.Amount {
			t.Fatalf("line %d: %s = %v on disk, %v in memory", i+1, rec.Key, rec.Amount, d.Credits(rec.Key))
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
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := settleTx(d, fmt.Sprintf("before-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	entered, release := holdWrite(d)
	d.FailWALAppends(1, errors.New("disk full"))
	const behind = 8
	errs := make(chan error, 1+behind)
	go func() { errs <- settleTx(d, "torn") }()
	<-entered
	for i := 0; i < behind; i++ {
		go func() {
			errs <- d.Update(func(tx *Tx) error {
				tx.AddCredits(fmt.Sprintf("behind-%d", i), float64(i))
				tx.MarkSettled(fmt.Sprintf("behind-%d", i))
				return nil
			})
		}()
	}
	waitStaged(t, d, behind)
	close(release)
	for i := 0; i < 1+behind; i++ {
		if err := <-errs; err != nil && !errors.Is(err, ErrNotDurable) {
			t.Fatal(err)
		}
	}
	if err := d.wal.brokenErr(); err != nil {
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
