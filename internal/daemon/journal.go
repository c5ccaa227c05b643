// Durable per-daemon state: a JSONL journal of job lifecycle events and
// the settlement outbox, so a crashed Faucets Daemon restarts without
// losing running-job bookkeeping or queued settlements.
//
// Record stream semantics (append-only, replayed in order on recovery):
//
//	{"op":"job", ...}    — a job was admitted: owner, price, contract
//	{"op":"done", ...}   — the job reached a terminal state with nothing
//	                       left to deliver (standalone finish, or kill)
//	{"op":"queue", ...}  — the job finished and its settlement entered
//	                       the outbox (implies terminal)
//	{"op":"ack", ...}    — the Central Server acknowledged the settlement
//
// Recovery resubmits every job with a "job" record and no terminal
// record (the synthetic application restarts from zero — the QoS
// contract, owner, and agreed price are preserved), and reloads every
// queued-but-unacknowledged settlement into the outbox for redelivery.
// The Central Server deduplicates by job ID, so redelivering a
// settlement whose ack was lost in the crash can never double-charge.
//
// Like the db WAL, replay stops at the first corrupt line and truncates
// the torn tail (internal/jsonl does both, for both); recovery then
// rewrites the journal compacted to only the live records.
//
// Unlike the db WAL, append does not fsync: a record is one write(), so
// it survives the daemon process dying (the kernel holds it) but not the
// host losing power before writeback. Only rewrite syncs (the file and,
// after the rename, its directory). An fsync per record would add a disk
// flush to each of a trip's three appends.
//
// append encodes into a buffer the journal owns, through a record it
// owns, under its lock — json.Marshal's bytes plus a newline, allocating
// nothing once the buffer has grown.
package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"

	"faucets/internal/jsonl"
	"faucets/internal/protocol"
	"faucets/internal/qos"
)

// Journal operation codes.
const (
	jopJob   = "job"
	jopDone  = "done"
	jopQueue = "queue"
	jopAck   = "ack"
)

// journalRecord is one journal line.
type journalRecord struct {
	Op       string              `json:"op"`
	JobID    string              `json:"job_id,omitempty"`
	Owner    string              `json:"owner,omitempty"`
	Price    float64             `json:"price,omitempty"`
	Contract *qos.Contract       `json:"contract,omitempty"`
	Settle   *protocol.SettleReq `json:"settle,omitempty"`
}

// journal is an append-only JSONL file. A nil *journal is a no-op sink,
// so callers need no durability conditionals.
type journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
	rec  journalRecord // append encodes through rec and enc into buf, under mu
	enc  *json.Encoder
	buf  bytes.Buffer
}

// openJournal reads the existing journal (tolerating a torn tail, which
// is truncated away) and opens it for appending.
func openJournal(path string) (*journal, []journalRecord, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o700); err != nil {
		return nil, nil, fmt.Errorf("daemon: journal dir: %w", err)
	}
	var recs []journalRecord
	err := jsonl.Replay(path, func(line []byte) bool {
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil || rec.Op == "" {
			return false // torn tail: keep the intact prefix only
		}
		recs = append(recs, rec)
		return true
	})
	if err != nil {
		return nil, nil, fmt.Errorf("daemon: read journal: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		return nil, nil, fmt.Errorf("daemon: open journal: %w", err)
	}
	j := &journal{f: f, path: path}
	j.enc = json.NewEncoder(&j.buf) // HTML-escaping, as json.Marshal
	return j, recs, nil
}

// append writes one record with one write() and no fsync; best effort
// (an unwritable journal degrades to in-memory operation rather than
// failing the job path).
func (j *journal) append(rec journalRecord) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return
	}
	j.rec = rec
	j.buf.Reset()
	if err := j.enc.Encode(&j.rec); err != nil {
		log.Printf("daemon: journal marshal: %v", err)
		return
	}
	if _, err := j.f.Write(j.buf.Bytes()); err != nil {
		log.Printf("daemon: journal append: %v", err)
	}
}

// rewrite replaces the journal contents with recs, atomically, and
// reopens for appending — compaction after recovery or at shutdown.
func (j *journal) rewrite(recs []journalRecord) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			return fmt.Errorf("daemon: journal marshal: %w", err)
		}
	}
	if err := jsonl.ReplaceFile(j.path, buf.Bytes()); err != nil {
		return fmt.Errorf("daemon: journal rewrite: %w", err)
	}
	if j.f != nil {
		j.f.Close()
	}
	f, err := os.OpenFile(j.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		j.f = nil
		return fmt.Errorf("daemon: journal reopen: %w", err)
	}
	j.f = f
	return nil
}

// close flushes and closes the file.
func (j *journal) close() {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f != nil {
		_ = j.f.Sync()
		_ = j.f.Close()
		j.f = nil
	}
}

// recoveredState is the live state distilled from a journal replay.
type recoveredState struct {
	// pending jobs were admitted but never reached a terminal record.
	pending map[string]journalRecord
	// queued settlements await Central Server acknowledgement.
	queued []protocol.SettleReq
}

// reduce folds a record stream into the live state.
func reduce(recs []journalRecord) recoveredState {
	st := recoveredState{pending: map[string]journalRecord{}}
	queued := map[string]protocol.SettleReq{}
	var order []string
	for _, rec := range recs {
		switch rec.Op {
		case jopJob:
			if rec.Contract != nil {
				st.pending[rec.JobID] = rec
			}
		case jopDone:
			delete(st.pending, rec.JobID)
		case jopQueue:
			if rec.Settle != nil {
				delete(st.pending, rec.Settle.JobID)
				if _, dup := queued[rec.Settle.JobID]; !dup {
					order = append(order, rec.Settle.JobID)
				}
				queued[rec.Settle.JobID] = *rec.Settle
			}
		case jopAck:
			if _, ok := queued[rec.JobID]; ok {
				delete(queued, rec.JobID)
			}
		}
	}
	for _, id := range order {
		if req, ok := queued[id]; ok {
			st.queued = append(st.queued, req)
		}
	}
	return st
}

// liveRecords renders the state back into a compact record stream.
func (st recoveredState) liveRecords() []journalRecord {
	var out []journalRecord
	ids := make([]string, 0, len(st.pending))
	for id := range st.pending {
		ids = append(ids, id)
	}
	// Deterministic order keeps compacted journals reproducible.
	for i := 0; i < len(ids); i++ {
		for k := i + 1; k < len(ids); k++ {
			if ids[k] < ids[i] {
				ids[i], ids[k] = ids[k], ids[i]
			}
		}
	}
	for _, id := range ids {
		rec := st.pending[id]
		out = append(out, rec)
	}
	for i := range st.queued {
		req := st.queued[i]
		out = append(out, journalRecord{Op: jopQueue, Settle: &req})
	}
	return out
}
