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
// crash between writing the snapshot and emptying the WAL can never
// double-apply a record. Replay stops at the first corrupt line (a torn
// tail from a crash mid-append) and truncates the file back to the last
// intact record before appending resumes.
//
// Compaction folds the WAL into a fresh snapshot: the snapshot replaces
// the old one atomically, and only then is the WAL emptied. It is also
// the one repair for a failed flush. The torn-tail scan, the atomic
// replace and the group-committing writer are internal/jsonl's, shared
// with the daemon journal.
package db

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"faucets/internal/jsonl"
	"faucets/internal/telemetry"
)

// WAL operation codes.
const (
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
	User     *UserRecord     `json:"user,omitempty"`
	Contract *ContractRecord `json:"contract,omitempty"`
	// Key names the account (cluster, user, or server) an amount applies
	// to, or a settled run's server; To is a transfer's receiving cluster.
	Key       string      `json:"key,omitempty"`
	To        string      `json:"to,omitempty"`
	Amount    float64     `json:"amount,omitempty"`
	JobID     string      `json:"job_id,omitempty"`
	Admission uint64      `json:"admission,omitempty"`
	Recs      []walRecord `json:"recs,omitempty"`
}

// ErrNotDurable marks an Update whose mutations were applied in memory
// but are not confirmed on disk. The caller must not acknowledge them to
// a remote party yet; the next compaction makes them durable.
var ErrNotDurable = errors.New("db: not durable")

// snapshotFile and walFile name the two durable files in a state dir.
func snapshotFile(stateDir string) string { return filepath.Join(stateDir, "snapshot.json") }
func walFile(stateDir string) string      { return filepath.Join(stateDir, "wal.jsonl") }

// Open loads (or creates) a durable database rooted at stateDir:
// snapshot first, then WAL replay, then the WAL is reopened for
// appending. It is the recovery entry point for every component that
// owns authoritative state.
func Open(stateDir string) (*DB, error) {
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
	w, err := jsonl.Open(walFile(stateDir), func(line []byte) bool {
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
		return nil, fmt.Errorf("db: wal: %w", err)
	}
	d.wal = w
	return d, nil
}

// applyMemLocked applies a record to the in-memory tables only; it is
// the single definition of each operation's semantics, shared by live
// mutation and replay. Caller holds d.mu (or exclusively owns d).
// An unknown op — such as the put_job lines of the job table older state
// directories carry — applies nothing.
func (d *DB) applyMemLocked(rec walRecord) {
	switch rec.Op {
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
			d.data.History.append(*rec.Contract)
		}
	case opAddQuota:
		d.data.Quotas[rec.Key] += rec.Amount
	case opAddRevenue:
		d.data.Revenue[rec.Key] += rec.Amount
	case opAddSpend:
		d.data.Spend[rec.Key] += rec.Amount
	case opMarkSettled:
		d.data.book(rec.JobID, rec.Key, rec.Admission)
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
	var ticket uint64
	if err == nil && w != nil {
		ticket, err = d.logLocked(tx)
	}
	staged := len(tx.recs)
	if err == nil {
		for _, rec := range tx.recs {
			d.applyMemLocked(rec)
		}
	}
	clear(tx.recs)
	tx.recs, tx.contracts = tx.recs[:0], tx.contracts[:0]
	d.mu.Unlock()
	if err != nil || w == nil {
		return err
	}
	if err = w.Wait(ticket); err == nil {
		return nil
	}
	if staged > 0 && !errors.Is(err, jsonl.ErrBroken) {
		return fmt.Errorf("%w: %w", ErrNotDurable, err)
	}
	if err = d.repair(w); err != nil {
		return fmt.Errorf("%w: %w", ErrNotDurable, err)
	}
	return nil
}

// logLocked stages a transaction's records as the next WAL line — one
// record as itself, several as a batch, both held by the Tx so nothing is
// boxed — and returns the ticket to wait on; for an empty transaction,
// the newest ticket instead. A record that cannot be encoded fails the
// transaction before anything is applied. Caller holds d.mu.
func (d *DB) logLocked(tx *Tx) (uint64, error) {
	if len(tx.recs) == 0 {
		return d.wal.Last(), nil
	}
	rec := &tx.recs[0]
	if len(tx.recs) > 1 {
		tx.batch = walRecord{Op: opBatch, Recs: tx.recs}
		rec = &tx.batch
	}
	rec.Seq = d.seq + 1
	ticket, err := d.wal.Stage(rec)
	if err != nil {
		return 0, fmt.Errorf("db: marshal wal record: %w", err)
	}
	d.seq++
	return ticket, nil
}

// repair compacts a broken log, unless a compaction since the failure
// already made it whole: that one ran after the caller's records were
// applied, so its snapshot holds them.
func (d *DB) repair(w *jsonl.Writer) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	err := w.Broken()
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
	if w != nil {
		w.FailWrites(n, err)
	}
}

// Compact folds the WAL into a fresh snapshot: atomic snapshot replace
// (jsonl.ReplaceFile, which syncs the directory so the rename cannot be
// lost behind what follows), then the WAL rewritten empty. Safe to call
// at any time; a crash at any point recovers to the same state. It is
// also what repairs a log broken by a failed flush.
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
	// d.mu (held) stops new lines being staged, and the snapshot holds
	// every one staged so far: the WAL may start over empty.
	return d.wal.Rewrite()
}

// Close flushes and closes the WAL. The database remains readable but
// further mutations are memory-only; reopen with Open to resume.
func (d *DB) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.wal == nil {
		return nil
	}
	err := d.wal.Close()
	d.wal = nil
	return err
}

// Instrument registers the WAL durability metrics on reg and binds the
// writer to them: faucets_db_wal_sync_total (group fsyncs),
// faucets_db_group_commit_batch_size (records per fsync) and
// faucets_db_wal_append_errors_total (records whose durability failed).
// No-op on an ephemeral database or a nil registry; safe to call again
// after a reopen (registration is idempotent by name).
func (d *DB) Instrument(reg *telemetry.Registry) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if reg != nil && d.wal != nil {
		d.wal.Instrument(reg, "faucets_db_wal_sync_total",
			"faucets_db_group_commit_batch_size", "faucets_db_wal_append_errors_total")
	}
}
