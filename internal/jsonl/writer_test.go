package jsonl

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// rec is a test line: Seq is assigned under the stager's own lock, as an
// owner's sequence number would be.
type rec struct {
	Seq int    `json:"seq"`
	Pad string `json:"pad,omitempty"`
}

// heldFile is a log file whose next write, once armed, waits first.
type heldFile struct {
	File
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

// testLog opens a fresh log whose file is a heldFile, and a stage
// function that numbers lines under its own lock and returns the ticket.
func testLog(t *testing.T) (w *Writer, held *heldFile, stage func(pad string) uint64) {
	t.Helper()
	w, err := Open(filepath.Join(t.TempDir(), "log.jsonl"), func([]byte) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	held = &heldFile{File: w.f}
	w.f = held
	var mu sync.Mutex
	seq := 0
	return w, held, func(pad string) uint64 {
		mu.Lock()
		defer mu.Unlock()
		seq++
		ticket, err := w.Stage(&rec{Seq: seq, Pad: pad})
		if err != nil {
			t.Error(err)
		}
		return ticket
	}
}

// waitStaged waits until w has handed out ticket n.
func waitStaged(t *testing.T, w *Writer, n uint64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); w.Last() != n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d lines staged, want %d", w.Last(), n)
		}
	}
}

// lines reads the log back as records, failing on a torn line.
func lines(t *testing.T, path string) []rec {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []rec
	for i, line := range strings.Split(strings.TrimSuffix(string(blob), "\n"), "\n") {
		if line == "" {
			continue
		}
		var r rec
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("line %d torn: %q (%v)", i+1, line, err)
		}
		out = append(out, r)
	}
	return out
}

// TestLinesStagedDuringAWriteLandWhole: while the leader writes one
// buffer, lines staged meanwhile go into the other; each lands whole, in
// staging order, in the very next flush — over rounds that swap the two
// buffers back and forth.
func TestLinesStagedDuringAWriteLandWhole(t *testing.T) {
	w, held, stage := testLog(t)
	var mu sync.Mutex
	var flushes []int
	w.onFlush = func(n int, _ error) { mu.Lock(); flushes = append(flushes, n); mu.Unlock() }

	const rounds, behind = 4, 12
	for r := 0; r < rounds; r++ {
		entered, release := held.holdWrite()
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { defer wg.Done(); w.Wait(stage("")) }()
		<-entered
		for i := 0; i < behind; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Long lines: the held buffer and the one behind it must not
				// share bytes, or a line written late would be torn.
				if err := w.Wait(stage(strings.Repeat("x", 40*i))); err != nil {
					t.Error(err)
				}
			}()
		}
		waitStaged(t, w, uint64(r*(1+behind)+1+behind))
		close(release)
		wg.Wait()
	}

	for i, n := range flushes {
		if want := []int{1, behind}[i%2]; n != want {
			t.Fatalf("flush sizes %v: flush %d carried %d lines, want %d", flushes, i, n, want)
		}
	}
	got := lines(t, w.path)
	if len(got) != rounds*(1+behind) {
		t.Fatalf("%d lines, want %d", len(got), rounds*(1+behind))
	}
	for i, r := range got {
		if r.Seq != i+1 {
			t.Fatalf("line %d carries seq %d: out of order", i+1, r.Seq)
		}
	}
}

// TestGroupCommitAmortizesFsyncs: N concurrent stage+wait callers must
// complete in far fewer than N fsyncs — lines staged while one fsync runs
// share the next — the hook must account for every line, and everything
// acknowledged must be in the file when the last Wait returns.
func TestGroupCommitAmortizesFsyncs(t *testing.T) {
	w, _, stage := testLog(t)
	var syncs, records atomic.Int64
	w.onFlush = func(n int, err error) {
		if err == nil {
			syncs.Add(1)
			records.Add(int64(n))
		}
	}

	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Wait(stage("")); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	if got := records.Load(); got != n {
		t.Fatalf("onFlush accounted for %d lines, want %d", got, n)
	}
	if got := syncs.Load(); got >= n/2 {
		t.Fatalf("%d fsyncs for %d concurrent lines — group commit is not batching", got, n)
	}
	if got := len(lines(t, w.path)); got != n {
		t.Fatalf("%d lines on disk after every Wait returned, want %d", got, n)
	}
}

// TestFailedFlushBreaksTheLogUntilRewrite: a flush that fails half
// written answers its own tickets with its error and every ticket staged
// behind it with ErrBroken, writing nothing more; a Rewrite with the
// owner's state makes the log whole, counts every ticket before it as
// durable, and appending resumes after the new content.
func TestFailedFlushBreaksTheLogUntilRewrite(t *testing.T) {
	w, held, stage := testLog(t)
	var failed atomic.Int64
	w.onFlush = func(n int, err error) {
		if err != nil {
			failed.Add(int64(n))
		}
	}
	for i := 0; i < 3; i++ {
		if err := w.Wait(stage("")); err != nil {
			t.Fatal(err)
		}
	}
	before, err := os.ReadFile(w.path)
	if err != nil {
		t.Fatal(err)
	}

	errDisk := errors.New("disk full")
	w.FailWrites(1, errDisk)
	entered, release := held.holdWrite()
	torn := stage("torn")
	tornErr := make(chan error, 1)
	go func() { tornErr <- w.Wait(torn) }()
	<-entered
	const behind = 4
	var tickets []uint64
	for i := 0; i < behind; i++ {
		tickets = append(tickets, stage(fmt.Sprint("behind-", i)))
	}
	close(release)
	if err := <-tornErr; !errors.Is(err, errDisk) {
		t.Fatalf("the failed flush's own ticket: %v, want %v", err, errDisk)
	}
	for _, ticket := range append(tickets, stage("later")) {
		if err := w.Wait(ticket); !errors.Is(err, ErrBroken) {
			t.Fatalf("ticket %d behind the failure: %v, want ErrBroken", ticket, err)
		}
	}
	if !errors.Is(w.Broken(), errDisk) || failed.Load() != 1+behind+1 {
		t.Fatalf("Broken() = %v, %d lines counted failed; want %v and %d", w.Broken(), failed.Load(), errDisk, 1+behind+1)
	}
	after, err := os.ReadFile(w.path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(after), string(before)) || len(after) >= len(before)+len(`{"seq":4,"pad":"torn"}`+"\n") {
		t.Fatalf("a broken log wrote more than the failed flush's half line:\n%q", after[len(before):])
	}

	live := `{"seq":1}` + "\n"
	if err := w.Rewrite(&rec{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Broken(); err != nil {
		t.Fatalf("Broken() = %v after a Rewrite", err)
	}
	if err := w.Wait(torn); err != nil {
		t.Fatalf("a ticket the Rewrite covers: %v, want nil", err)
	}
	if err := w.Wait(stage("resumed")); err != nil {
		t.Fatal(err)
	}
	if err := w.Wait(w.Last()); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(w.path)
	if err != nil {
		t.Fatal(err)
	}
	if want := live + `{"seq":10,"pad":"resumed"}` + "\n"; string(blob) != want {
		t.Fatalf("log after the Rewrite:\n%q\nwant\n%q", blob, want)
	}
}

// TestFailedRewriteBreaksTheLog: a Rewrite whose directory sync fails
// after the rename leaves the writer's open file unlinked. No line may be
// acknowledged into it: every later Wait fails until a Rewrite succeeds,
// and the file then holds that Rewrite's lines — a value that cannot be
// encoded left out — and what was appended after them.
func TestFailedRewriteBreaksTheLog(t *testing.T) {
	w, _, stage := testLog(t)
	if err := w.Wait(stage("")); err != nil {
		t.Fatal(err)
	}
	errDir := errors.New("directory sync failed")
	orig := syncDir
	t.Cleanup(func() { syncDir = orig })
	syncDir = func(string) error { return errDir }
	if err := w.Rewrite(&rec{Seq: 1}); !errors.Is(err, errDir) {
		t.Fatalf("Rewrite = %v, want %v", err, errDir)
	}
	syncDir = orig
	if err := w.Wait(stage("orphaned")); err == nil {
		t.Fatal("a line staged after a failed Rewrite was acknowledged")
	}
	if !errors.Is(w.Broken(), errDir) {
		t.Fatalf("Broken() = %v, want %v", w.Broken(), errDir)
	}

	if err := w.Rewrite(&rec{Seq: 1}, make(chan int), &rec{Seq: 2, Pad: "live"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Wait(stage("resumed")); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(w.path)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"seq":1}` + "\n" + `{"seq":2,"pad":"live"}` + "\n" + `{"seq":3,"pad":"resumed"}` + "\n"
	if string(blob) != want {
		t.Fatalf("log after the repair:\n%q\nwant\n%q", blob, want)
	}
}

// slowSyncFile is a log file whose every fsync takes d: a slow disk.
type slowSyncFile struct {
	File
	d time.Duration
}

func (f slowSyncFile) Sync() error {
	time.Sleep(f.d)
	return f.File.Sync()
}

// TestLeaderHandsOff: on a slow disk, with lines arriving all the time, a
// waiter returns after at most two flushes — the one running when it
// staged and the one that carries its line — rather than staying on as
// leader to flush other callers' lines for as long as they keep coming.
func TestLeaderHandsOff(t *testing.T) {
	open := OpenFile
	t.Cleanup(func() { OpenFile = open })
	OpenFile = func(path string) (File, error) {
		f, err := open(path)
		if err != nil {
			return nil, err
		}
		return slowSyncFile{File: f, d: 2 * time.Millisecond}, nil
	}
	w, err := Open(filepath.Join(t.TempDir(), "log.jsonl"), func([]byte) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// stagedAt[i] is the newest ticket handed out when flush i finished:
	// flush i finished after ticket t was staged iff stagedAt[i] >= t.
	var stagedAt []uint64
	w.onFlush = func(int, error) { stagedAt = append(stagedAt, w.staged) } // under cmu

	var stop atomic.Bool
	var wg sync.WaitGroup
	// Three callers that stage and wait, and one whose lines nobody waits
	// for (as a daemon's finish records): lines land during every fsync.
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000 && !stop.Load(); i++ {
				ticket, err := w.Stage(&rec{Seq: i})
				if err == nil && g > 0 {
					err = w.Wait(ticket)
				}
				if err != nil {
					t.Error(err)
					return
				}
				if g == 0 {
					time.Sleep(100 * time.Microsecond)
				}
			}
		}()
	}
	for i := range 20 {
		ticket, err := w.Stage(&rec{Seq: -i})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Wait(ticket); err != nil {
			t.Fatal(err)
		}
		w.cmu.Lock()
		flushes := 0
		for _, at := range stagedAt {
			if at >= ticket {
				flushes++
			}
		}
		w.cmu.Unlock()
		if flushes > 2 {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("wait %d returned after %d flushes, want ≤ 2", i, flushes)
		}
	}
	stop.Store(true)
	wg.Wait()
}
