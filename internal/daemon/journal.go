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
// contract, owner, and agreed price are preserved; one the scheduler no
// longer fits stays journaled for a later boot), and reloads every
// queued-but-unacknowledged settlement into the outbox for redelivery.
// The job, queue and ack records name the run's admission number (0 in
// records older than it), and the Central Server books each run once, so
// redelivering a settlement whose ack was lost can never double-charge.
//
// The journal is written as the db WAL is, through internal/jsonl's
// group-committing Writer: records are staged under d.mu and a reply that
// depends on one (SubmitOK on its "job", KillOK on its "done") is written
// only once its ticket is fsync'd. A finish's "queue" and "ack" are waited
// for once per run-loop pass; no reply rests on them. A failed flush is
// repaired by rewriting the journal from live state, as recovery and
// Close leave it.
package daemon

import (
	"encoding/json"
	"fmt"
	"log"
	"sort"
	"time"

	"faucets/internal/job"
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
	Op        string              `json:"op"`
	JobID     string              `json:"job_id,omitempty"`
	Owner     string              `json:"owner,omitempty"`
	Price     float64             `json:"price,omitempty"`
	Contract  *qos.Contract       `json:"contract,omitempty"`
	Settle    *protocol.SettleReq `json:"settle,omitempty"`
	Admission uint64              `json:"admission,omitempty"`
}

// openJournal replays the journal at path (a torn tail is truncated away)
// and opens it for appending.
func openJournal(path string) (*jsonl.Writer, []journalRecord, error) {
	var recs []journalRecord
	w, err := jsonl.Open(path, func(line []byte) bool {
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil || rec.Op == "" {
			return false // torn tail: keep the intact prefix only
		}
		recs = append(recs, rec)
		return true
	})
	if err != nil {
		return nil, nil, fmt.Errorf("daemon: journal: %w", err)
	}
	return w, recs, nil
}

// A jticket is a staged journal record: its writer ticket and when it was
// staged. The zero jticket stands for the newest record, what a caller
// that staged nothing waits on: lines are written in order.
type jticket struct {
	n  uint64
	at time.Time
}

// journalStage stages rec as the journal's next line. Caller holds d.mu,
// which keeps the lines in the order of the changes they record. A record
// that cannot be encoded is logged and not journaled.
func (d *Daemon) journalStage(rec journalRecord) jticket {
	if d.journal == nil {
		return jticket{}
	}
	at := time.Now()
	d.jrec = rec
	n, err := d.journal.Stage(&d.jrec)
	if err != nil {
		log.Printf("daemon %s: %s %s not journaled: %v", d.Name(), rec.Op, rec.JobID, err)
	}
	return jticket{n: n, at: at}
}

// journalWait returns once t's record and every one before it are on
// disk, timing a staged one. A failed flush is repaired by rewriting the
// journal from live state, which holds the record; if that fails too the
// caller's reply is a retryable error. Call it without d.mu. An err that
// came with t is the caller's own failure, returned as is.
func (d *Daemon) journalWait(t jticket, err error) error {
	if err != nil || d.journal == nil {
		return err
	}
	if t.n == 0 {
		t.n = d.journal.Last()
	}
	err = d.journal.Wait(t.n)
	if !t.at.IsZero() {
		d.met.journalAppend.Observe(time.Since(t.at).Seconds())
	}
	if err == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.journal.Broken() == nil {
		return nil // a rewrite since the failure holds the record
	}
	if err := d.rewriteJournalLocked(); err != nil {
		return protocol.MarkRetryable(fmt.Errorf("daemon %s: journal: %w", d.Name(), err))
	}
	return nil
}

// rewriteJournalLocked compacts the journal to the daemon's live state:
// every admission no finish or kill has closed, including those recovery
// could not place, then the outbox. It is what recovery and Close leave,
// and the repair for a failed flush. Caller holds d.mu (or owns the
// daemon, as New does).
func (d *Daemon) rewriteJournalLocked() error {
	st := recoveredState{pending: map[string]journalRecord{}, queued: d.outbox}
	for _, rec := range d.unplaced {
		st.pending[rec.JobID] = rec
	}
	for id, a := range d.jobs {
		// A job the scheduler finished but finishJob has not settled is
		// still owed its settlement: live until a "queue" record says so.
		if !a.settled && a.j.State() != job.Killed {
			st.pending[id] = journalRecord{Op: jopJob, JobID: id, Owner: a.j.Owner, Price: a.price, Contract: a.j.Contract, Admission: a.num}
		}
	}
	return d.journal.Rewrite(st.liveRecords()...)
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
	type run struct {
		id  string
		num uint64
	}
	queued := map[run]protocol.SettleReq{}
	var order []run
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
				// A rewrite lists pending jobs first, so an earlier run's
				// queued settlement can follow a newer run's admission.
				if p := st.pending[rec.Settle.JobID]; p.Admission == rec.Settle.Admission {
					delete(st.pending, rec.Settle.JobID)
				}
				k := run{rec.Settle.JobID, rec.Settle.Admission}
				if _, dup := queued[k]; !dup {
					order = append(order, k)
				}
				queued[k] = *rec.Settle
			}
		case jopAck:
			delete(queued, run{rec.JobID, rec.Admission})
		}
	}
	for _, k := range order {
		if req, ok := queued[k]; ok {
			st.queued = append(st.queued, req)
		}
	}
	return st
}

// liveRecords renders the state back into a compact record stream, as
// the *journalRecord values Rewrite takes.
func (st recoveredState) liveRecords() []any {
	var out []any
	ids := make([]string, 0, len(st.pending))
	for id := range st.pending {
		ids = append(ids, id)
	}
	sort.Strings(ids) // deterministic order keeps compacted journals reproducible
	for _, id := range ids {
		rec := st.pending[id]
		out = append(out, &rec)
	}
	for i := range st.queued {
		out = append(out, &journalRecord{Op: jopQueue, Settle: &st.queued[i]})
	}
	return out
}
