// Write-ahead logging and crash recovery for the database.
//
// Durability layout (one directory per component instance):
//
//	<state-dir>/snapshot.json  — atomic JSON snapshot of every table
//	<state-dir>/wal.jsonl      — append-only JSONL of mutations since
//	                             the snapshot
//
// Every transaction (Update) is applied to the in-memory tables and
// appended to the WAL as one JSON line carrying a monotonically
// increasing sequence number. Recovery loads the snapshot (if any) and
// replays WAL records whose sequence number exceeds the snapshot's — so a
// crash between writing the snapshot and truncating the WAL can never
// double-apply a record. Replay stops at the first corrupt line (a torn
// tail from a crash mid-append) and truncates the file back to the last
// intact record before appending resumes.
//
// Compaction folds the WAL into a fresh snapshot: the snapshot replaces
// the old one atomically, and only then is the WAL truncated. It is also
// the one repair for a failed flush. The torn-tail scan and the atomic
// replace are internal/jsonl's, shared with the daemon journal.
package db

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"

	"faucets/internal/jsonl"
)

// WAL operation codes.
const (
	opPutJob      = "put_job"
	opPutUser     = "put_user"
	opAddCredits  = "add_credits"
	opTransfer    = "transfer"
	opContract    = "contract"
	opAddQuota    = "add_quota"
	opAddRevenue  = "add_revenue"
	opAddSpend    = "add_spend"
	opMarkSettled = "settled"
	opBatch       = "batch"
)

// walRecord is one WAL line: a single mutation, or a batch of mutations
// that must apply atomically (all-or-nothing on replay).
type walRecord struct {
	Seq      uint64          `json:"seq,omitempty"`
	Op       string          `json:"op"`
	Job      *JobRecord      `json:"job,omitempty"`
	User     *UserRecord     `json:"user,omitempty"`
	Contract *ContractRecord `json:"contract,omitempty"`
	// Key names the account (cluster, user, or server) an amount applies
	// to; To is the receiving cluster of a transfer.
	Key    string      `json:"key,omitempty"`
	To     string      `json:"to,omitempty"`
	Amount float64     `json:"amount,omitempty"`
	JobID  string      `json:"job_id,omitempty"`
	Recs   []walRecord `json:"recs,omitempty"`
}

// walBatch is one group commit in flight: every line staged while the
// previous fsync was running shares a batch, and every staging goroutine
// waits on the same done channel. err is set before done closes, so the
// close is the happens-before edge that publishes it.
type walBatch struct {
	done chan struct{}
	err  error
}

// errBroken fails, unwritten, every batch staged behind a failed flush:
// a line appended after the bytes that flush may have left would be cut
// off with them on replay.
var errBroken = errors.New("db: wal broken by an earlier failed flush")

// ErrNotDurable marks an Update whose mutations were applied in memory
// but are not confirmed on disk. The caller must not acknowledge them to
// a remote party yet; the next compaction makes them durable.
var ErrNotDurable = errors.New("db: not durable")

// walWriter appends lines to the log file using group commit: Update
// stages an encoded line under the database lock (enqueue) and then
// waits for durability outside it (commitWait). The first waiter becomes
// the leader and writes+fsyncs the whole accumulated batch in one pass;
// followers park on the batch's done channel. One slow fsync therefore
// covers every line that arrived while it ran, instead of each line
// paying its own.
type walWriter struct {
	f *os.File

	// cmu guards the staging state below. Lock order: d.mu → cmu
	// (enqueue runs under both; commitWait takes cmu alone).
	cmu     sync.Mutex
	cond    *sync.Cond // broadcast when leadership is released
	leader  bool
	pending []byte    // encoded lines awaiting write+fsync
	spare   []byte    // the last flush's written buffer, the next pending
	npend   int       // line count in pending
	batch   *walBatch // batch the pending lines belong to
	last    *walBatch // the newest batch handed out, flushed or not
	// broken is the error of the first failed flush since the last
	// reset; while it is set nothing more is written.
	broken error

	// Metric hooks (nil until DB.Instrument wires them).
	onSync func(records int) // after each successful group fsync
	onErr  func(records int) // records whose durability failed

	// Fault-injection seams for tests: the next failN flushes write half
	// their bytes and then fail with failErr — the shape a short write(2)
	// on a full disk leaves — and beforeWrite runs on the leader just
	// before each write, cmu released (a no-op unless a test holds the
	// leader there). Guarded by cmu.
	failN       int
	failErr     error
	beforeWrite func()
}

// maxSpareBuf caps the spare a flush keeps: a burst's buffer is dropped.
const maxSpareBuf = 64 << 10

func openWALWriter(path string) (*walWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		return nil, fmt.Errorf("db: open wal: %w", err)
	}
	w := &walWriter{f: f, beforeWrite: func() {}}
	w.cond = sync.NewCond(&w.cmu)
	return w, nil
}

// enqueue copies one encoded line, newline included, to pending and
// returns the batch to wait on with commitWait. The caller must hold the
// database lock, which is what keeps the buffer in sequence-number order.
func (w *walWriter) enqueue(line []byte) *walBatch {
	w.cmu.Lock()
	defer w.cmu.Unlock()
	if w.batch == nil {
		w.batch = &walBatch{done: make(chan struct{})}
		w.last = w.batch
	}
	w.pending = append(w.pending, line...)
	w.npend++
	return w.batch
}

// lastBatch is what a transaction that staged nothing waits on: batches
// finish in order, so the newest one covers every line before it. Nil
// when nothing was staged since the last reset.
func (w *walWriter) lastBatch() *walBatch {
	w.cmu.Lock()
	defer w.cmu.Unlock()
	return w.last
}

// brokenErr reports the failed flush that broke the log, if any.
func (w *walWriter) brokenErr() error {
	w.cmu.Lock()
	defer w.cmu.Unlock()
	return w.broken
}

// commitWait blocks until b's lines are written and fsync'd, electing
// this goroutine as the batch leader if none is active. Must be called
// without the database lock.
func (w *walWriter) commitWait(b *walBatch) error {
	w.cmu.Lock()
	select {
	case <-b.done:
	default:
		// With a leader active we just wait: its loop runs until nothing
		// is pending, so our batch is guaranteed to close.
		if !w.leader {
			w.leadLocked()
		}
	}
	w.cmu.Unlock()
	<-b.done
	return b.err
}

// leadLocked makes the caller the leader for one flush of everything
// pending. Caller holds cmu and has checked that no leader is active.
func (w *walWriter) leadLocked() {
	w.leader = true
	w.flushLocked()
	w.leader = false
	w.cond.Broadcast()
}

// flushLocked writes and fsyncs every pending batch in order, looping
// until the buffer is empty so no waiter is left parked when leadership
// releases. Caller holds cmu; the lock is dropped around the disk I/O,
// while enqueue fills the spare. The first failure breaks the log: the
// batches behind it fail with errBroken without being written.
func (w *walWriter) flushLocked() {
	for w.npend > 0 {
		blob, n, batch := w.pending, w.npend, w.batch
		w.pending, w.spare, w.npend, w.batch = w.spare, nil, 0, nil
		err := errBroken
		if w.broken == nil {
			var inject error
			if w.failN > 0 {
				w.failN--
				inject = w.failErr
			}
			hold := w.beforeWrite
			w.cmu.Unlock()
			hold()
			err = w.writeAndSync(blob, inject)
			w.cmu.Lock()
			if err != nil {
				log.Printf("db: wal group commit (%d records): %v", n, err)
				w.broken = err
			}
		}
		if cap(blob) <= maxSpareBuf {
			w.spare = blob[:0] // written: nothing reads it any more
		}
		if err != nil {
			if w.onErr != nil {
				w.onErr(n)
			}
		} else if w.onSync != nil {
			w.onSync(n)
		}
		batch.err = err
		close(batch.done)
	}
}

// drain flushes any staged lines and returns once no leader is active
// and nothing is pending. Callers hold the database lock, so no new
// lines can be staged while drain runs — afterwards the file is
// quiescent and safe to truncate or close.
func (w *walWriter) drain() {
	w.cmu.Lock()
	defer w.cmu.Unlock()
	for w.leader {
		w.cond.Wait()
	}
	// Lines whose owner has not reached commitWait yet: flush on their
	// behalf (they will find done already closed).
	w.leadLocked()
}

func (w *walWriter) writeAndSync(blob []byte, inject error) error {
	if inject != nil {
		w.f.Write(blob[:len(blob)/2])
		return inject
	}
	if _, err := w.f.Write(blob); err != nil {
		return fmt.Errorf("db: append wal: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("db: sync wal: %w", err)
	}
	return nil
}

// reset truncates and syncs the log after a successful snapshot, which
// makes a broken log whole again. Callers hold the database lock and
// have drained the writer.
func (w *walWriter) reset() error {
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("db: truncate wal: %w", err)
	}
	if _, err := w.f.Seek(0, 0); err != nil {
		return fmt.Errorf("db: rewind wal: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("db: sync wal: %w", err)
	}
	w.cmu.Lock()
	w.broken, w.last = nil, nil
	w.cmu.Unlock()
	return nil
}

func (w *walWriter) close() error { return w.f.Close() }

// snapshotFile and walFile name the two durable files in a state dir.
func snapshotFile(stateDir string) string { return filepath.Join(stateDir, "snapshot.json") }
func walFile(stateDir string) string      { return filepath.Join(stateDir, "wal.jsonl") }

// Open loads (or creates) a durable database rooted at stateDir:
// snapshot first, then WAL replay, then the WAL is reopened for
// appending. It is the recovery entry point for every component that
// owns authoritative state.
func Open(stateDir string) (*DB, error) {
	if err := os.MkdirAll(stateDir, 0o700); err != nil {
		return nil, fmt.Errorf("db: state dir: %w", err)
	}
	d := New()
	d.stateDir = stateDir
	if blob, err := os.ReadFile(snapshotFile(stateDir)); err == nil {
		var s snapshot
		if err := json.Unmarshal(blob, &s); err != nil {
			return nil, fmt.Errorf("db: decode snapshot: %w", err)
		}
		initMaps(&s)
		d.data = s
		d.seq = s.Seq
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("db: read snapshot: %w", err)
	}
	// Apply every intact post-snapshot record; Replay stops at the first
	// line that is not one and drops the torn tail, so a crash mid-append
	// cannot wedge recovery.
	err := jsonl.Replay(walFile(stateDir), func(line []byte) bool {
		var rec walRecord
		if err := json.Unmarshal(line, &rec); err != nil || rec.Op == "" {
			return false
		}
		if rec.Seq > d.seq {
			d.applyMemLocked(rec)
			d.seq = rec.Seq
		}
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("db: replay wal: %w", err)
	}
	w, err := openWALWriter(walFile(stateDir))
	if err != nil {
		return nil, err
	}
	d.wal = w
	d.enc = json.NewEncoder(&d.line) // HTML-escaping, as json.Marshal
	return d, nil
}

// applyMemLocked applies a record to the in-memory tables only; it is
// the single definition of each operation's semantics, shared by live
// mutation and replay. Caller holds d.mu (or exclusively owns d).
func (d *DB) applyMemLocked(rec walRecord) {
	switch rec.Op {
	case opPutJob:
		if rec.Job != nil {
			d.data.Jobs[rec.Job.ID] = *rec.Job
		}
	case opPutUser:
		if rec.User != nil {
			d.data.Users[rec.User.Name] = *rec.User
		}
	case opAddCredits:
		d.data.Credits[rec.Key] += rec.Amount
	case opTransfer:
		d.data.Credits[rec.Key] -= rec.Amount
		d.data.Credits[rec.To] += rec.Amount
	case opContract:
		if rec.Contract != nil {
			d.data.History = append(d.data.History, *rec.Contract)
		}
	case opAddQuota:
		d.data.Quotas[rec.Key] += rec.Amount
	case opAddRevenue:
		d.data.Revenue[rec.Key] += rec.Amount
	case opAddSpend:
		d.data.Spend[rec.Key] += rec.Amount
	case opMarkSettled:
		d.data.Settled[rec.JobID] = true
	case opBatch:
		for _, sub := range rec.Recs {
			d.applyMemLocked(sub)
		}
	}
}

// Update runs fn as one transaction; it is the only way anything is
// written. fn runs under the database lock with a Tx that reads the live
// tables and stages mutations. If fn fails nothing is applied or logged.
// Otherwise the records are applied to memory and staged as one WAL line
// (one record as itself, several as a batch), the lock is released, and
// Update waits until that line and every line before it are fsync'd — a
// Tx that stages nothing still waits for what precedes it.
//
// A failed flush breaks the log, and no Update returns nil while it is
// broken: those whose own line failed return ErrNotDurable, and the first
// to find its line or its predecessors behind the failure compacts (memory
// holds everything applied) and returns that compaction's verdict.
func (d *DB) Update(fn func(*Tx) error) error {
	d.mu.Lock()
	tx := &d.tx
	err := fn(tx)
	w := d.wal
	var b *walBatch
	if err == nil && w != nil {
		b, err = d.logLocked(tx.recs)
	}
	staged := len(tx.recs)
	if err == nil {
		for _, rec := range tx.recs {
			d.applyMemLocked(rec)
		}
	}
	clear(tx.recs)
	tx.recs, tx.jobs, tx.contracts = tx.recs[:0], tx.jobs[:0], tx.contracts[:0]
	d.mu.Unlock()
	if err != nil || b == nil {
		return err
	}
	if err = w.commitWait(b); err == nil {
		return nil
	}
	if staged > 0 && !errors.Is(err, errBroken) {
		return fmt.Errorf("%w: %w", ErrNotDurable, err)
	}
	if err = d.repair(w); err != nil {
		return fmt.Errorf("%w: %w", ErrNotDurable, err)
	}
	return nil
}

// logLocked encodes a transaction's records as the next WAL line and
// stages it, returning the batch to wait on; for an empty transaction it
// returns the newest batch instead. A record that cannot be encoded
// fails the transaction before anything is applied. Caller holds d.mu.
func (d *DB) logLocked(recs []walRecord) (*walBatch, error) {
	if len(recs) == 0 {
		return d.wal.lastBatch(), nil
	}
	d.rec = walRecord{Op: opBatch, Recs: recs}
	if len(recs) == 1 {
		d.rec = recs[0]
	}
	d.rec.Seq = d.seq + 1
	d.line.Reset()
	if err := d.enc.Encode(&d.rec); err != nil {
		return nil, fmt.Errorf("db: marshal wal record: %w", err)
	}
	d.seq++
	return d.wal.enqueue(d.line.Bytes()), nil
}

// repair compacts a broken log, unless a compaction since the failure
// already made it whole: that one ran after the caller's records were
// applied, so its snapshot holds them.
func (d *DB) repair(w *walWriter) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	err := w.brokenErr()
	if err != nil && d.wal == w {
		err = d.compactLocked()
	}
	return err
}

// FailWALAppends arms fault injection on the WAL: the next n group
// flushes write half their bytes and then fail with err — the failure
// shape a short write on a full disk produces. Their Updates return
// ErrNotDurable and the log stays broken until a compaction repairs it.
// n <= 0 disarms. No-op on an ephemeral database. Chaos-test seam; never
// called in production paths.
func (d *DB) FailWALAppends(n int, err error) {
	d.mu.Lock()
	w := d.wal
	d.mu.Unlock()
	if w == nil {
		return
	}
	w.cmu.Lock()
	w.failN = n
	w.failErr = err
	w.cmu.Unlock()
}

// Compact folds the WAL into a fresh snapshot: atomic snapshot replace
// (jsonl.ReplaceFile, which syncs the directory so the rename cannot be
// lost behind the truncation), then WAL truncation and fsync. Safe to
// call at any time; a crash at any point recovers to the same state. It
// is also what repairs a log broken by a failed flush.
func (d *DB) Compact() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.compactLocked()
}

func (d *DB) compactLocked() error {
	if d.stateDir == "" {
		return fmt.Errorf("db: compact: not a durable database")
	}
	d.data.Seq = d.seq
	blob, err := json.MarshalIndent(d.data, "", "  ")
	if err != nil {
		return fmt.Errorf("db: marshal snapshot: %w", err)
	}
	if err := jsonl.ReplaceFile(snapshotFile(d.stateDir), blob); err != nil {
		return fmt.Errorf("db: write snapshot: %w", err)
	}
	if d.wal == nil {
		return nil
	}
	// Quiesce in-flight group commits before truncating: d.mu (held)
	// stops new lines being staged, drain flushes what is already staged
	// and waits out any active leader.
	d.wal.drain()
	return d.wal.reset()
}

// Close flushes and closes the WAL. The database remains readable but
// further mutations are memory-only; reopen with Open to resume.
func (d *DB) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.wal == nil {
		return nil
	}
	d.wal.drain()
	if err := d.wal.f.Sync(); err != nil {
		d.wal.close()
		d.wal = nil
		return fmt.Errorf("db: sync wal: %w", err)
	}
	err := d.wal.close()
	d.wal = nil
	return err
}
