// Package db is the Database component of the Faucets architecture
// (paper Fig 1): the Faucets Central Server stores user information and
// the directory of Compute Servers; each Scheduler stores "the current
// status of all the running and scheduled jobs on the Compute Server",
// which it queries to decide whether to accept a new job; and the
// contract history of §5.2.1 feeds the history-aware bid generators.
//
// The store is an in-memory, mutex-guarded set of tables. Opened with
// Open, every mutation is also appended to a write-ahead log and
// periodically folded into an atomic snapshot (see wal.go), so a crashed
// Central Server recovers its accounts, job records, and contract
// history — the durability the paper's contractually binding payoffs
// (§3, §5.2.1) demand, with none of the external dependencies this
// reproduction forbids. New remains for ephemeral (simulation/test)
// databases.
package db

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// JobRecord is a job's persistent status row.
type JobRecord struct {
	ID          string  `json:"id"`
	Owner       string  `json:"owner"`
	Server      string  `json:"server"`
	App         string  `json:"app"`
	State       string  `json:"state"`
	SubmitTime  float64 `json:"submit_time"`
	StartTime   float64 `json:"start_time"`
	FinishTime  float64 `json:"finish_time"`
	Price       float64 `json:"price"`
	CPUSeconds  float64 `json:"cpu_seconds"`
	HomeCluster string  `json:"home_cluster,omitempty"`
}

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
type UserRecord struct {
	Name        string `json:"name"`
	HomeCluster string `json:"home_cluster,omitempty"`
}

// snapshot is the serialized form of the whole database. Seq is the
// WAL sequence number the snapshot covers; replay skips records at or
// below it.
type snapshot struct {
	Seq     uint64                `json:"seq,omitempty"`
	Jobs    map[string]JobRecord  `json:"jobs"`
	Users   map[string]UserRecord `json:"users"`
	Credits map[string]float64    `json:"credits"`
	History []ContractRecord      `json:"history"`
	// The accounting tables of §5.5: SU quotas per user, Dollar/SU
	// revenue per server, cumulative spend per user (§5.5.4 fair usage),
	// and the set of settled job IDs that makes settlement idempotent
	// under outbox redelivery.
	Quotas  map[string]float64 `json:"quotas,omitempty"`
	Revenue map[string]float64 `json:"revenue,omitempty"`
	Spend   map[string]float64 `json:"spend,omitempty"`
	Settled map[string]bool    `json:"settled,omitempty"`
}

// initMaps replaces nil tables (absent in older snapshots) with empty
// ones.
func initMaps(s *snapshot) {
	if s.Jobs == nil {
		s.Jobs = map[string]JobRecord{}
	}
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
	if s.Settled == nil {
		s.Settled = map[string]bool{}
	}
}

// DB is a concurrent in-memory database with optional WAL+snapshot
// persistence (Open).
type DB struct {
	mu   sync.RWMutex
	data snapshot

	// Durability state (nil/empty on an ephemeral database).
	stateDir string
	wal      *walWriter
	seq      uint64
	batch    *[]walRecord
}

// ErrNotFound is returned when a row does not exist.
var ErrNotFound = errors.New("db: not found")

// New returns an empty ephemeral database.
func New() *DB {
	var s snapshot
	initMaps(&s)
	return &DB{data: s}
}

// Durable reports whether mutations are written ahead to disk.
func (d *DB) Durable() bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.wal != nil
}

// PutJob inserts or replaces a job row.
func (d *DB) PutJob(r JobRecord) {
	d.mu.Lock()
	b := d.applyLocked(walRecord{Op: opPutJob, Job: &r})
	d.mu.Unlock()
	d.waitDurable(b)
}

// GetJob fetches a job row.
func (d *DB) GetJob(id string) (JobRecord, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	r, ok := d.data.Jobs[id]
	if !ok {
		return JobRecord{}, fmt.Errorf("%w: job %s", ErrNotFound, id)
	}
	return r, nil
}

// UpdateJob applies fn to an existing row under the lock.
func (d *DB) UpdateJob(id string, fn func(*JobRecord)) error {
	d.mu.Lock()
	r, ok := d.data.Jobs[id]
	if !ok {
		d.mu.Unlock()
		return fmt.Errorf("%w: job %s", ErrNotFound, id)
	}
	fn(&r)
	b := d.applyLocked(walRecord{Op: opPutJob, Job: &r})
	d.mu.Unlock()
	d.waitDurable(b)
	return nil
}

// jobLess is the canonical job ordering: submit time, then ID.
func jobLess(a, b JobRecord) bool {
	if a.SubmitTime != b.SubmitTime {
		return a.SubmitTime < b.SubmitTime
	}
	return a.ID < b.ID
}

// ListJobs returns rows matching the filter (nil matches all), sorted by
// submit time then ID. The result is sized up front so the append loop
// never reallocates mid-scan.
func (d *DB) ListJobs(match func(JobRecord) bool) []JobRecord {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]JobRecord, 0, len(d.data.Jobs))
	for _, r := range d.data.Jobs {
		if match == nil || match(r) {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return jobLess(out[i], out[j]) })
	return out
}

// PutUser inserts or replaces a user profile.
func (d *DB) PutUser(r UserRecord) {
	d.mu.Lock()
	b := d.applyLocked(walRecord{Op: opPutUser, User: &r})
	d.mu.Unlock()
	d.waitDurable(b)
}

// GetUser fetches a user profile.
func (d *DB) GetUser(name string) (UserRecord, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	r, ok := d.data.Users[name]
	if !ok {
		return UserRecord{}, fmt.Errorf("%w: user %s", ErrNotFound, name)
	}
	return r, nil
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
	d.mu.Lock()
	b := d.applyLocked(walRecord{Op: opAddCredits, Key: cluster, Amount: delta})
	v := d.data.Credits[cluster]
	d.mu.Unlock()
	d.waitDurable(b)
	return v
}

// TransferCredits moves amount from one cluster to another atomically —
// the §5.5.3 settlement: "the appropriate number of credits are added to
// the Compute Server that executed the job and [an] equal amount is
// deducted from the Home Cluster's account."
func (d *DB) TransferCredits(from, to string, amount float64) error {
	if amount < 0 {
		return fmt.Errorf("db: negative transfer %v", amount)
	}
	d.mu.Lock()
	b := d.applyLocked(walRecord{Op: opTransfer, Key: from, To: to, Amount: amount})
	d.mu.Unlock()
	return d.waitDurable(b)
}

// TotalCredits sums every balance — zero by construction under pure
// transfers, the conservation invariant the bartering tests check.
func (d *DB) TotalCredits() float64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var sum float64
	for _, v := range d.data.Credits {
		sum += v
	}
	return sum
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
	d.mu.Lock()
	b := d.applyLocked(walRecord{Op: opAddQuota, Key: user, Amount: delta})
	v := d.data.Quotas[user]
	d.mu.Unlock()
	d.waitDurable(b)
	return v
}

// Revenue returns a server's cumulative income (Dollars/SU modes).
func (d *DB) Revenue(server string) float64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.data.Revenue[server]
}

// AddRevenue books income for a server.
func (d *DB) AddRevenue(server string, amount float64) {
	d.mu.Lock()
	b := d.applyLocked(walRecord{Op: opAddRevenue, Key: server, Amount: amount})
	d.mu.Unlock()
	d.waitDurable(b)
}

// Spend returns a user's cumulative payments (§5.5.4 fair usage).
func (d *DB) Spend(user string) float64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.data.Spend[user]
}

// AddSpend accumulates a user's payments.
func (d *DB) AddSpend(user string, amount float64) {
	d.mu.Lock()
	b := d.applyLocked(walRecord{Op: opAddSpend, Key: user, Amount: amount})
	d.mu.Unlock()
	d.waitDurable(b)
}

// Settled reports whether a job's settlement has already been applied.
func (d *DB) Settled(jobID string) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.data.Settled[jobID]
}

// MarkSettled records a job ID as settled; the second and later calls
// return false. This is the dedupe that makes settlement application
// idempotent under daemon outbox redelivery.
func (d *DB) MarkSettled(jobID string) bool {
	d.mu.Lock()
	if d.data.Settled[jobID] {
		d.mu.Unlock()
		return false
	}
	b := d.applyLocked(walRecord{Op: opMarkSettled, JobID: jobID})
	d.mu.Unlock()
	d.waitDurable(b)
	return true
}

// SettledCount returns how many distinct jobs have settled.
func (d *DB) SettledCount() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.data.Settled)
}

// AppendContract records a settled contract in the market history.
func (d *DB) AppendContract(r ContractRecord) {
	d.mu.Lock()
	b := d.applyLocked(walRecord{Op: opContract, Contract: &r})
	d.mu.Unlock()
	d.waitDurable(b)
}

// RecentContracts returns up to limit settled contracts matching the
// filter, newest first.
func (d *DB) RecentContracts(match func(ContractRecord) bool, limit int) []ContractRecord {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var out []ContractRecord
	for i := len(d.data.History) - 1; i >= 0 && len(out) < limit; i-- {
		r := d.data.History[i]
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
	return len(d.data.History)
}
