// Package db is the Database component of the Faucets architecture
// (paper Fig 1) as the Faucets Central Server keeps it: user profiles,
// accounts, and the contract history of §5.2.1 that feeds the
// history-aware bid generators. "The current status of all the running
// and scheduled jobs on the Compute Server" is the Scheduler's own
// (internal/scheduler), made durable by the daemon's journal.
//
// The store is an in-memory, mutex-guarded set of tables. Opened with
// Open, every mutation is also appended to a write-ahead log and
// periodically folded into an atomic snapshot (see wal.go), so a crashed
// Central Server recovers its accounts and contract history — the
// durability the paper's contractually binding payoffs (§3, §5.2.1)
// demand, with none of the external dependencies this reproduction
// forbids. New remains for ephemeral (simulation/test) databases.
package db

import (
	"fmt"
	"slices"
	"sync"

	"faucets/internal/jsonl"
)

// ContractRecord is one settled contract in the market history (§5.2.1:
// "maintaining a history of every individual contract over recent time
// periods").
type ContractRecord struct {
	Time       float64 `json:"time"`
	JobID      string  `json:"job_id"`
	App        string  `json:"app"`
	Server     string  `json:"server"`
	MinPE      int     `json:"min_pe"`
	MaxPE      int     `json:"max_pe"`
	Price      float64 `json:"price"`
	Multiplier float64 `json:"multiplier"`
}

// UserRecord is a user profile row (credentials live in package auth).
// No production path writes one: the table and its put_user record stay
// in the on-disk format, so state directories that carry them replay.
type UserRecord struct {
	Name        string `json:"name"`
	HomeCluster string `json:"home_cluster,omitempty"`
}

// snapshot is the serialized form of the whole database. Seq is the
// WAL sequence number the snapshot covers; replay skips records at or
// below it.
type snapshot struct {
	Seq     uint64                `json:"seq,omitempty"`
	Users   map[string]UserRecord `json:"users"`
	Credits map[string]float64    `json:"credits"`
	History history               `json:"history"`
	// The accounting tables of §5.5: SU quotas per user, Dollar/SU
	// revenue per server, cumulative spend per user (§5.5.4 fair usage),
	// and the settled runs that make settlement idempotent under outbox
	// redelivery (book). Settled is an older snapshot's: initMaps books it.
	Quotas  map[string]float64           `json:"quotas,omitempty"`
	Revenue map[string]float64           `json:"revenue,omitempty"`
	Spend   map[string]float64           `json:"spend,omitempty"`
	Runs    map[string]map[string]uint64 `json:"runs,omitempty"`
	Reused  map[string][]booking         `json:"reused,omitempty"`
	Settled map[string]bool              `json:"settled,omitempty"`
}

// booking is a settled run of a reused job ID: its server and admission.
type booking struct {
	Server    string `json:"server,omitempty"`
	Admission uint64 `json:"admission,omitempty"`
}

// book records a settled run: by server, then job ID, the admission
// number of the first run of that ID there, and in Reused any later one.
func (s *snapshot) book(jobID, server string, admission uint64) {
	if _, ok := s.Runs[server][jobID]; ok {
		s.Reused[jobID] = append(s.Reused[jobID], booking{server, admission})
		return
	}
	if s.Runs[server] == nil {
		s.Runs[server] = map[string]uint64{}
	}
	s.Runs[server][jobID] = admission
}

// initMaps replaces nil tables (absent in older snapshots) with empty
// ones.
func initMaps(s *snapshot) {
	if s.Users == nil {
		s.Users = map[string]UserRecord{}
	}
	if s.Credits == nil {
		s.Credits = map[string]float64{}
	}
	if s.Quotas == nil {
		s.Quotas = map[string]float64{}
	}
	if s.Revenue == nil {
		s.Revenue = map[string]float64{}
	}
	if s.Spend == nil {
		s.Spend = map[string]float64{}
	}
	if s.Runs == nil {
		s.Runs = map[string]map[string]uint64{}
	}
	if s.Reused == nil {
		s.Reused = map[string][]booking{}
	}
	for id := range s.Settled {
		s.book(id, "", 0) // a run of no server and admission 0
	}
	s.Settled = nil
}

// DB is a concurrent in-memory database with optional WAL+snapshot
// persistence (Open).
type DB struct {
	mu   sync.RWMutex
	data snapshot
	// tx is the transaction Update lends to its fn; it is only ever
	// touched under mu.
	tx Tx

	// Durability state (nil/empty on an ephemeral database).
	stateDir string
	wal      *jsonl.Writer
	seq      uint64
}

// New returns an empty ephemeral database.
func New() *DB {
	d := &DB{}
	initMaps(&d.data)
	d.tx.data = &d.data
	return d
}

// Durable reports whether mutations are written ahead to disk.
func (d *DB) Durable() bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.wal != nil
}

// Tx is one transaction, handed to the fn of Update. Its reads see the
// tables as they stood when fn was called — not the writes it has staged
// itself — and its writes are applied together, as one WAL line, once fn
// returns nil. A Tx is valid only inside that fn, and fn must not call
// the DB's own methods: Update holds the lock they take.
type Tx struct {
	data *snapshot
	recs []walRecord
	// Staged contract rows live in a slab kept across transactions, so
	// staging one allocates nothing once it has grown. A record staged
	// before the slab grew points into the old array, which stays alive
	// and unchanged.
	contracts []ContractRecord
	// batch is the WAL line of a Tx that staged several records.
	batch walRecord
}

func (tx *Tx) stage(rec walRecord) { tx.recs = append(tx.recs, rec) }

// Settled reports whether the settlement of a run has been applied. A
// run of admission 0 is also the run of no server that a mark written
// before marks named runs stands for: an older daemon's redelivery.
func (tx *Tx) Settled(jobID, server string, admission uint64) bool {
	if _, old := tx.data.Runs[""][jobID]; old && admission == 0 {
		return true
	}
	n, ok := tx.data.Runs[server][jobID]
	return ok && (n == admission || slices.Contains(tx.data.Reused[jobID], booking{server, admission}))
}

// Quota returns a user's remaining Service-Units.
func (tx *Tx) Quota(user string) float64 { return tx.data.Quotas[user] }

// Credits returns a cluster's bartering balance.
func (tx *Tx) Credits(cluster string) float64 { return tx.data.Credits[cluster] }

// AddCredits stages adjusting a cluster's balance by delta.
func (tx *Tx) AddCredits(cluster string, delta float64) {
	tx.stage(walRecord{Op: opAddCredits, Key: cluster, Amount: delta})
}

// TransferCredits stages moving amount from one cluster to another; a
// negative amount fails the transaction.
func (tx *Tx) TransferCredits(from, to string, amount float64) error {
	if amount < 0 {
		return fmt.Errorf("db: negative transfer %v", amount)
	}
	tx.stage(walRecord{Op: opTransfer, Key: from, To: to, Amount: amount})
	return nil
}

// AddQuota stages adjusting a user's SU allocation by delta.
func (tx *Tx) AddQuota(user string, delta float64) {
	tx.stage(walRecord{Op: opAddQuota, Key: user, Amount: delta})
}

// AddRevenue stages booking income for a server.
func (tx *Tx) AddRevenue(server string, amount float64) {
	tx.stage(walRecord{Op: opAddRevenue, Key: server, Amount: amount})
}

// AddSpend stages accumulating a user's payments.
func (tx *Tx) AddSpend(user string, amount float64) {
	tx.stage(walRecord{Op: opAddSpend, Key: user, Amount: amount})
}

// MarkSettled stages recording the settlement of a run.
func (tx *Tx) MarkSettled(jobID, server string, admission uint64) {
	tx.stage(walRecord{Op: opMarkSettled, JobID: jobID, Key: server, Admission: admission})
}

// AppendContract stages recording a settled contract in the history.
func (tx *Tx) AppendContract(r ContractRecord) {
	tx.contracts = append(tx.contracts, r)
	tx.stage(walRecord{Op: opContract, Contract: &tx.contracts[len(tx.contracts)-1]})
}

// Credits returns a cluster's bartering balance (zero for unknown
// clusters — every cluster starts at zero, §5.5.3).
func (d *DB) Credits(cluster string) float64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.data.Credits[cluster]
}

// AddCredits adjusts a cluster's balance by delta and returns the new
// balance.
func (d *DB) AddCredits(cluster string, delta float64) float64 {
	var v float64
	d.Update(func(tx *Tx) error {
		v = tx.Credits(cluster) + delta
		tx.AddCredits(cluster, delta)
		return nil
	})
	return v
}

// Quota returns a user's remaining Service-Units (§5.5.2).
func (d *DB) Quota(user string) float64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.data.Quotas[user]
}

// AddQuota adjusts a user's SU allocation by delta (negative to draw
// down) and returns the new balance.
func (d *DB) AddQuota(user string, delta float64) float64 {
	var v float64
	d.Update(func(tx *Tx) error {
		v = tx.Quota(user) + delta
		tx.AddQuota(user, delta)
		return nil
	})
	return v
}

// Revenue returns a server's cumulative income (Dollars/SU modes).
func (d *DB) Revenue(server string) float64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.data.Revenue[server]
}

// Spend returns a user's cumulative payments (§5.5.4 fair usage).
func (d *DB) Spend(user string) float64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.data.Spend[user]
}

// Settled reports whether some settlement of a job ID has been applied.
func (d *DB) Settled(jobID string) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	for _, runs := range d.data.Runs {
		if _, ok := runs[jobID]; ok {
			return true
		}
	}
	return false
}

// Reset empties an ephemeral database for reuse, keeping the storage
// of its tables and its history: a simulated replay hands its database
// to the next one. A durable database cannot be reset; Reset panics.
func (d *DB) Reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.wal != nil {
		panic("db: Reset of a durable database")
	}
	clear(d.data.Users)
	clear(d.data.Credits)
	clear(d.data.Quotas)
	clear(d.data.Revenue)
	clear(d.data.Spend)
	clear(d.data.Runs)
	clear(d.data.Reused)
	d.data.History.reset()
}

// RecentContracts returns up to limit settled contracts matching the
// filter, newest first.
func (d *DB) RecentContracts(match func(ContractRecord) bool, limit int) []ContractRecord {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var out []ContractRecord
	for i := d.data.History.n - 1; i >= 0 && len(out) < limit; i-- {
		r := *d.data.History.at(i)
		if match == nil || match(r) {
			out = append(out, r)
		}
	}
	return out
}

// HistoryLen returns the number of recorded contracts.
func (d *DB) HistoryLen() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.data.History.n
}
