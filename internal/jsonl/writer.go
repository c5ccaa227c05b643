package jsonl

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sync"

	"faucets/internal/telemetry"
)

// File is the part of an open log a Writer uses; *os.File has it.
type File interface {
	io.WriteCloser
	Sync() error
}

// OpenFile opens path for appending, creating it if need be. A Writer
// opens its file through it at Open and after every Rewrite, so a test
// can stand a double in for the disk: one that forgets unsynced bytes.
var OpenFile = func(path string) (File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
}

// ErrBroken fails, unwritten, every line staged behind a failed flush: a
// line appended after the bytes that flush may have left would be cut
// off with them on replay. A Rewrite makes the log whole again.
var ErrBroken = errors.New("jsonl: log broken by an earlier failed flush")

// maxSpareBuf caps the spare a flush keeps: a burst's buffer is dropped.
const maxSpareBuf = 64 << 10

// Writer appends lines to one log with group commit. An owner stages a
// value under a lock of its own (Stage), which keeps the file in the
// order of the changes the lines record, and waits for its ticket outside
// that lock (Wait). The first waiter to find lines unwritten leads: it
// writes and fsyncs everything staged, its own line included, and hands
// leadership to a waiter still parked on cond: however fast lines arrive,
// a waiter returns after at most two fsyncs. One fsync covers every line
// that arrived while the previous one ran.
//
// Tickets count the lines staged since Open. Everything up to synced is
// on disk; a flush that fails breaks the log, its tickets (up to failTo)
// get its error and those flushed after it ErrBroken, until a Rewrite
// succeeds. A Rewrite that fails breaks the log the same way.
type Writer struct {
	path string
	f    File
	enc  *json.Encoder // encodes into pending, under cmu

	cmu     sync.Mutex
	cond    *sync.Cond // broadcast when a flush resolves tickets or leadership ends
	leader  bool
	pending []byte // encoded lines awaiting write+fsync
	spare   []byte // the last flush's written buffer, the next pending
	staged  uint64 // the newest ticket handed out
	done    uint64 // every ticket up to done has its verdict
	synced  uint64 // every ticket up to synced is on disk
	broken  error  // why the log is broken: a failed flush or Rewrite, until a Rewrite succeeds
	failTo  uint64 // the newest ticket that flush carried

	// onFlush, if set, learns each flush's line count and verdict.
	onFlush func(lines int, err error)

	// failN flushes from now write half their bytes and then fail with
	// failErr — the shape a short write(2) on a full disk leaves.
	failN   int
	failErr error
}

// lineSink is the Writer as its encoder's destination. Encode marshals a
// whole value before it writes it, in one call, so a value that fails to
// encode appends nothing. Called under cmu.
type lineSink Writer

func (s *lineSink) Write(p []byte) (int, error) {
	s.pending = append(s.pending, p...)
	return len(p), nil
}

// Open replays the log at path (see Replay) and opens it for appending,
// creating the file and its directory if need be.
func Open(path string, apply func(line []byte) bool) (*Writer, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o700); err != nil {
		return nil, fmt.Errorf("jsonl: log directory: %w", err)
	}
	if err := Replay(path, apply); err != nil {
		return nil, err
	}
	f, err := OpenFile(path)
	if err != nil {
		return nil, fmt.Errorf("jsonl: open %s: %w", path, err)
	}
	w := &Writer{path: path, f: f}
	w.enc = json.NewEncoder((*lineSink)(w)) // HTML-escaping, as json.Marshal
	w.cond = sync.NewCond(&w.cmu)
	return w, nil
}

// Stage encodes v as the next line — json.Marshal's bytes and a newline —
// and returns the ticket to Wait on. A value that cannot be encoded (a
// NaN) stages nothing, and the ticket is then the newest: waiting on it
// still covers every line before. Pass a pointer the caller owns: a value
// boxed per call is an allocation per line.
func (w *Writer) Stage(v any) (uint64, error) {
	w.cmu.Lock()
	defer w.cmu.Unlock()
	if err := w.enc.Encode(v); err != nil {
		return w.staged, fmt.Errorf("jsonl: encode: %w", err)
	}
	w.staged++
	return w.staged, nil
}

// Last is the newest ticket handed out: what a caller that staged nothing
// waits on, since lines are written in order. Zero before the first line.
func (w *Writer) Last() uint64 {
	w.cmu.Lock()
	defer w.cmu.Unlock()
	return w.staged
}

// Broken reports the failed flush or Rewrite that broke the log, if any.
func (w *Writer) Broken() error {
	w.cmu.Lock()
	defer w.cmu.Unlock()
	return w.broken
}

// Wait blocks until the line with ticket t and every line before it are
// on disk, leading the flush if none is running, or reports why not. Call
// it without the lock Stage was called under.
func (w *Writer) Wait(t uint64) error {
	w.cmu.Lock()
	defer w.cmu.Unlock()
	for t > w.done {
		// A leader flushes everything pending, so it reaches t.
		if w.leader {
			w.cond.Wait()
		} else {
			w.leadLocked()
		}
	}
	switch {
	case t <= w.synced:
		return nil
	case t <= w.failTo:
		return w.broken
	}
	return ErrBroken
}

// leadLocked makes the caller the leader for one flush: it writes and
// fsyncs the lines pending when it starts, if any, and hands leadership
// on. The lock is dropped around the disk I/O, while Stage fills the
// spare: only the leader holds the buffer in flight. The first failure
// breaks the log, and the lines behind it fail with ErrBroken unwritten.
// Caller holds cmu and has checked that no leader is active.
func (w *Writer) leadLocked() {
	defer w.cond.Broadcast()
	if w.done == w.staged {
		return
	}
	blob, hi := w.pending, w.staged
	n := int(hi - w.done)
	w.pending, w.spare = w.spare, nil
	err := ErrBroken
	if w.broken == nil {
		var inject error
		if w.failN > 0 {
			w.failN--
			inject = w.failErr
		}
		f := w.f
		w.leader = true
		w.cmu.Unlock()
		err = writeAndSync(f, blob, inject)
		w.cmu.Lock()
		w.leader = false
		if err != nil {
			log.Printf("jsonl: %s: group commit (%d lines): %v", w.path, n, err)
			w.broken, w.failTo = err, hi
		} else {
			w.synced = hi
		}
	}
	if cap(blob) <= maxSpareBuf {
		w.spare = blob[:0] // written: nothing reads it any more
	}
	if w.onFlush != nil {
		w.onFlush(n, err)
	}
	w.done = hi
}

func writeAndSync(f File, blob []byte, inject error) error {
	if inject != nil {
		f.Write(blob[:len(blob)/2])
		return inject
	}
	if _, err := f.Write(blob); err != nil {
		return fmt.Errorf("jsonl: append: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("jsonl: sync: %w", err)
	}
	return nil
}

// drainLocked flushes what is staged and returns, holding cmu, once no
// flush is running and nothing is pending. Caller holds cmu.
func (w *Writer) drainLocked() {
	for w.leader || w.done < w.staged {
		if w.leader {
			w.cond.Wait()
		} else {
			w.leadLocked() // for lines whose owners are not waiting yet
		}
	}
}

// Rewrite makes vals, one line each as Stage encodes them (one that cannot
// be is logged and left out), the whole log, atomically, and appends after
// it from then on. The caller holds the lock it stages under and vals add
// up to every line staged so far, so every ticket handed out counts as
// durable: Rewrite is the repair for a broken log. One that fails breaks
// the log: ReplaceFile may fail after its rename, and a line appended to
// the unlinked file would be acknowledged and then lost.
func (w *Writer) Rewrite(vals ...any) error {
	w.cmu.Lock()
	defer w.cmu.Unlock()
	w.drainLocked() // pending is empty, and cmu keeps it so
	for _, v := range vals {
		if err := w.enc.Encode(v); err != nil {
			log.Printf("jsonl: %s: rewrite: a line left out: %v", w.path, err)
		}
	}
	err := ReplaceFile(w.path, w.pending)
	w.pending = w.pending[:0]
	var f File
	if err == nil {
		f, err = OpenFile(w.path)
	}
	if err != nil {
		w.broken = err
		return err
	}
	if w.f != nil {
		w.f.Close()
	}
	w.f, w.synced, w.broken = f, w.staged, nil
	return nil
}

// Close flushes what is staged and closes the file; nothing staged later
// is written.
func (w *Writer) Close() error {
	w.cmu.Lock()
	defer w.cmu.Unlock()
	w.drainLocked()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f, w.broken = nil, ErrBroken
	return err
}

// FailWrites arms fault injection: the next n flushes write half their
// bytes and then fail with err, breaking the log. n <= 0 disarms.
func (w *Writer) FailWrites(n int, err error) {
	w.cmu.Lock()
	defer w.cmu.Unlock()
	w.failN, w.failErr = n, err
}

// Instrument binds the writer to three instruments it registers on reg
// under its owner's names: group fsyncs, lines per fsync, and lines whose
// durability failed. Registration is idempotent, so a reopened log may too.
func (w *Writer) Instrument(reg *telemetry.Registry, syncs, batch, errs string) {
	syncC := reg.Counter(syncs, "Group-commit fsyncs written.")
	sizes := reg.Histogram(batch, "Lines made durable per group-commit fsync.", []float64{1, 2, 4, 8, 16, 32, 64, 128})
	errC := reg.Counter(errs, "Lines whose append or fsync failed; their durability is unconfirmed.")
	w.cmu.Lock()
	defer w.cmu.Unlock()
	w.onFlush = func(lines int, err error) {
		if err != nil {
			errC.Add(uint64(lines))
			return
		}
		syncC.Inc()
		sizes.Observe(float64(lines))
	}
}
