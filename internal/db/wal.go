// Write-ahead logging and crash recovery for the database.
//
// Durability layout (one directory per component instance):
//
//	<state-dir>/snapshot.json  — atomic JSON snapshot of every table
//	<state-dir>/wal.jsonl      — append-only JSONL of mutations since
//	                             the snapshot
//
// Every mutation is applied to the in-memory tables and appended to the
// WAL as one JSON line carrying a monotonically increasing sequence
// number. Recovery loads the snapshot (if any) and replays WAL records
// whose sequence number exceeds the snapshot's — so a crash between
// writing the snapshot and truncating the WAL can never double-apply a
// record. Replay stops at the first corrupt line (a torn tail from a
// crash mid-append) and truncates the file back to the last intact
// record before appending resumes.
//
// Compaction folds the WAL into a fresh snapshot: the snapshot replaces
// the old one atomically, and only then is the WAL truncated. The
// torn-tail scan and the atomic replace are internal/jsonl's, shared
// with the daemon journal.
package db

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"
	"time"

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

// walBatch is one group commit in flight: every record staged while the
// previous fsync was running shares a batch, and every staging goroutine
// waits on the same done channel. err is set before done closes, so the
// close is the happens-before edge that publishes it.
type walBatch struct {
	w    *walWriter
	done chan struct{}
	err  error
}

// walWriter appends records to the log file using group commit: callers
// stage marshaled records under the database lock (enqueue) and then
// wait for durability outside it (commitWait). The first waiter becomes
// the leader and writes+fsyncs the whole accumulated batch in one pass;
// followers park on the batch's done channel. One slow fsync therefore
// covers every record that arrived while it ran, instead of each record
// paying its own.
type walWriter struct {
	f    *os.File
	path string

	// cmu guards the staging state below. Lock order: d.mu → cmu
	// (enqueue runs under both; commitWait takes cmu alone).
	cmu     sync.Mutex
	cond    *sync.Cond // broadcast when leadership is released
	window  time.Duration
	leader  bool
	pending []byte    // marshaled records awaiting write+fsync
	npend   int       // record count in pending
	batch   *walBatch // batch the pending records belong to

	// Metric hooks (nil until DB.Instrument wires them).
	onSync func(records int) // after each successful group fsync
	onErr  func(records int) // records whose durability failed

	// Fault-injection seam for chaos tests: the next failN flush passes
	// fail with failErr before touching the file — the shape a full
	// disk produces. Guarded by cmu.
	failN   int
	failErr error
}

func openWALWriter(path string) (*walWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		return nil, fmt.Errorf("db: open wal: %w", err)
	}
	w := &walWriter{f: f, path: path}
	w.cond = sync.NewCond(&w.cmu)
	return w, nil
}

// enqueue marshals rec into the pending buffer and returns the batch
// handle to wait on with commitWait. The caller must hold the database
// lock, which is what keeps the buffer in sequence-number order: the
// record is staged before the lock is released, so a later sequence
// number can never land in the file ahead of an earlier one.
func (w *walWriter) enqueue(rec walRecord) (*walBatch, error) {
	blob, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("db: marshal wal record: %w", err)
	}
	w.cmu.Lock()
	if w.batch == nil {
		w.batch = &walBatch{w: w, done: make(chan struct{})}
	}
	w.pending = append(w.pending, blob...)
	w.pending = append(w.pending, '\n')
	w.npend++
	b := w.batch
	w.cmu.Unlock()
	return b, nil
}

// commitWait blocks until b's records are written and fsync'd, electing
// this goroutine as the batch leader if none is active. Must be called
// without the database lock.
func (w *walWriter) commitWait(b *walBatch) error {
	w.cmu.Lock()
	for {
		select {
		case <-b.done:
			w.cmu.Unlock()
			return b.err
		default:
		}
		if w.leader {
			// Another goroutine is flushing; its drain loop runs until
			// nothing is pending, so our batch is guaranteed to close.
			w.cmu.Unlock()
			<-b.done
			return b.err
		}
		w.leader = true
		if w.window > 0 {
			// Optional accumulation window: give concurrent mutators a
			// beat to pile onto this batch before paying the fsync.
			w.cmu.Unlock()
			time.Sleep(w.window)
			w.cmu.Lock()
		}
		w.flushLocked()
		w.leader = false
		w.cond.Broadcast()
		w.cmu.Unlock()
		<-b.done
		return b.err
	}
}

// flushLocked writes and fsyncs every pending batch, looping until the
// buffer is empty so no waiter is left parked when leadership releases.
// Caller holds cmu; the lock is dropped around the disk I/O.
func (w *walWriter) flushLocked() {
	for w.npend > 0 {
		blob, n, batch := w.pending, w.npend, w.batch
		w.pending, w.npend, w.batch = nil, 0, nil
		onSync, onErr := w.onSync, w.onErr
		var inject error
		if w.failN > 0 {
			w.failN--
			inject = w.failErr
		}
		w.cmu.Unlock()
		var err error
		if inject != nil {
			err = inject
		} else {
			err = w.writeAndSync(blob)
		}
		if err != nil {
			log.Printf("db: wal group commit (%d records): %v", n, err)
			if onErr != nil {
				onErr(n)
			}
		} else if onSync != nil {
			onSync(n)
		}
		batch.err = err
		close(batch.done)
		w.cmu.Lock()
	}
}

// drain flushes any staged records and returns once no leader is active
// and nothing is pending. Callers hold the database lock, so no new
// records can be staged while drain runs — afterwards the file is
// quiescent and safe to truncate or close.
func (w *walWriter) drain() {
	w.cmu.Lock()
	for {
		if w.leader {
			w.cond.Wait()
			continue
		}
		if w.npend == 0 {
			w.cmu.Unlock()
			return
		}
		// Pending records whose owner has not reached commitWait yet:
		// flush on their behalf (they will find done already closed).
		w.leader = true
		w.flushLocked()
		w.leader = false
		w.cond.Broadcast()
	}
}

func (w *walWriter) writeAndSync(blob []byte) error {
	if _, err := w.f.Write(blob); err != nil {
		return fmt.Errorf("db: append wal: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("db: sync wal: %w", err)
	}
	return nil
}

// reset truncates the log after a successful snapshot.
func (w *walWriter) reset() error {
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("db: truncate wal: %w", err)
	}
	if _, err := w.f.Seek(0, 0); err != nil {
		return fmt.Errorf("db: rewind wal: %w", err)
	}
	return nil
}

func (w *walWriter) sync() error  { return w.f.Sync() }
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

// applyLocked applies a mutation to memory and stages it for durable
// logging (when the database was opened with Open; a plain New/Load
// database skips the log). It returns the group-commit batch the caller
// must wait on with waitDurable after releasing d.mu — nil when there is
// nothing to wait for. Caller holds d.mu.
func (d *DB) applyLocked(rec walRecord) *walBatch {
	d.applyMemLocked(rec)
	return d.logLocked(rec)
}

// logLocked stages one record for the WAL, or appends it to the open
// batch buffer. A marshal failure is counted and logged here because the
// record never reaches the group-commit path that normally reports
// errors.
func (d *DB) logLocked(rec walRecord) *walBatch {
	if d.wal == nil {
		return nil
	}
	if d.batch != nil {
		*d.batch = append(*d.batch, rec)
		return nil
	}
	d.seq++
	rec.Seq = d.seq
	b, err := d.wal.enqueue(rec)
	if err != nil {
		log.Printf("db: wal append failed: %v", err)
		if f := d.wal.onErr; f != nil {
			f(1)
		}
		return nil
	}
	return b
}

// waitDurable blocks until a staged record's group commit has fsync'd.
// Call without holding d.mu. Nil batches (ephemeral database, open batch
// buffer) return immediately.
func (d *DB) waitDurable(b *walBatch) error {
	if b == nil {
		return nil
	}
	return b.w.commitWait(b)
}

// SetGroupWindow sets the group-commit accumulation window: how long a
// freshly elected batch leader waits before paying the fsync, letting
// concurrent mutators pile onto the batch. Zero (the default) flushes
// immediately — batching then comes only from records that arrive while
// a previous fsync is in flight. No-op on an ephemeral database.
func (d *DB) SetGroupWindow(window time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.wal == nil {
		return
	}
	d.wal.cmu.Lock()
	d.wal.window = window
	d.wal.cmu.Unlock()
}

// FailWALAppends arms fault injection on the WAL: the next n group
// flushes fail with err before touching the file — the failure shape a
// full disk produces. Records in a failed flush are dropped exactly as
// a real append failure drops them, so CommitBatch surfaces the error
// and settle acks are withheld. n <= 0 disarms. No-op on an ephemeral
// database. Chaos-test seam; never called in production paths.
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

// BeginBatch starts buffering WAL records so a multi-mutation operation
// (a settlement: transfer + settled-mark + contract row) lands as one
// atomic WAL line — after a crash, either all of it replays or none.
// Mutations still apply to memory immediately. Concurrent mutations from
// other goroutines that slip into the window are flushed with the batch,
// which only delays their durability to the commit. No-op on a
// non-durable database.
func (d *DB) BeginBatch() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.wal == nil || d.batch != nil {
		return
	}
	buf := make([]walRecord, 0, 4)
	d.batch = &buf
}

// CommitBatch writes the buffered records as a single atomic WAL line
// and waits for the group commit that makes it durable. An empty batch
// (the operation failed before mutating anything) writes nothing. The
// error is the durability verdict for the whole batch: a non-nil return
// means the mutations are applied in memory but their WAL line is not
// confirmed on disk, and the caller must not acknowledge the operation
// to a remote party (the settlement path surfaces this as a retryable
// RPC error so the daemon's outbox redelivers).
func (d *DB) CommitBatch() error {
	d.mu.Lock()
	if d.batch == nil {
		d.mu.Unlock()
		return nil
	}
	recs := *d.batch
	d.batch = nil
	if len(recs) == 0 || d.wal == nil {
		d.mu.Unlock()
		return nil
	}
	d.seq++
	b, err := d.wal.enqueue(walRecord{Seq: d.seq, Op: opBatch, Recs: recs})
	if err != nil {
		if f := d.wal.onErr; f != nil {
			f(1)
		}
		d.mu.Unlock()
		log.Printf("db: wal batch append failed: %v", err)
		return err
	}
	d.mu.Unlock()
	return d.waitDurable(b)
}

// Compact folds the WAL into a fresh snapshot: atomic snapshot replace
// (jsonl.ReplaceFile, which syncs the directory so the rename cannot be
// lost behind the truncation), then WAL truncation and fsync. Safe to
// call at any time; a crash at any point recovers to the same state.
func (d *DB) Compact() error {
	d.mu.Lock()
	defer d.mu.Unlock()
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
	if d.wal != nil {
		// Quiesce in-flight group commits before truncating: d.mu (held)
		// stops new records being staged, drain flushes what is already
		// staged and waits out any active leader.
		d.wal.drain()
		if err := d.wal.reset(); err != nil {
			return err
		}
		if err := d.wal.sync(); err != nil {
			return fmt.Errorf("db: sync wal: %w", err)
		}
	}
	return nil
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
	if err := d.wal.sync(); err != nil {
		d.wal.close()
		d.wal = nil
		return fmt.Errorf("db: sync wal: %w", err)
	}
	err := d.wal.close()
	d.wal = nil
	return err
}
