// Package weather implements the §5.2.1 "Faucets Support for bidding":
// "The Faucets system will provide such global information to Compute
// Servers and/or their agents … maintaining a history of every
// individual contract over recent time periods, summaries based on
// various histogram metrics (e.g., grouping jobs based on the minimum or
// maximum number of processors they need), trends for future usage…"
//
// The name follows the paper's own analogy to the Network Weather
// Service: bid generators ask "how busy is the entire computational grid
// likely to be during the period covered by the deadline?" and "what is
// the average price of similar contracts in the recent past, in the
// whole system?"
package weather

import (
	"fmt"
	"sync"

	"faucets/internal/db"
)

// Report is one grid-weather snapshot.
type Report struct {
	// Time is when the report was computed (virtual seconds).
	Time float64 `json:"time"`
	// GridUtilization is busy processors across all live Compute
	// Servers divided by total processors, in [0,1].
	GridUtilization float64 `json:"grid_utilization"`
	// Servers and TotalPE describe the live fleet.
	Servers int `json:"servers"`
	TotalPE int `json:"total_pe"`
	// Contracts is how many settled contracts inform the price stats.
	Contracts int `json:"contracts"`
	// MeanMultiplier is the average settled price multiplier over the
	// recent window.
	MeanMultiplier float64 `json:"mean_multiplier"`
	// BucketMultipliers groups recent contracts by processor demand —
	// the paper's histogram metrics. Keys: "small" (≤8 PEs), "medium"
	// (≤64), "large" (>64), bucketed by the contract's MaxPE.
	BucketMultipliers map[string]float64 `json:"bucket_multipliers,omitempty"`
}

// Bucket names a processor-demand class for histogram summaries.
func Bucket(maxPE int) string {
	switch {
	case maxPE <= 8:
		return "small"
	case maxPE <= 64:
		return "medium"
	default:
		return "large"
	}
}

// SimilarContracts answers §5.2.1's "what is the average price of similar
// contracts in the recent past": up to limit settled contracts in the
// processor-demand bucket of maxPE, newest first.
func SimilarContracts(store *db.DB, maxPE, limit int) []db.ContractRecord {
	bucket := Bucket(maxPE)
	return store.RecentContracts(func(r db.ContractRecord) bool {
		return Bucket(r.MaxPE) == bucket
	}, limit)
}

// Window is how many recent contracts feed the price statistics.
const Window = 100

// Compute builds a report from the fleet's dynamic state and the
// contract history.
func Compute(now float64, usedPE, totalPE, servers int, store *db.DB) Report {
	r := Report{Time: now, Servers: servers, TotalPE: totalPE}
	if totalPE > 0 {
		r.GridUtilization = float64(usedPE) / float64(totalPE)
		if r.GridUtilization > 1 {
			r.GridUtilization = 1
		}
	}
	if store == nil {
		return r
	}
	recs := store.RecentContracts(nil, Window)
	if len(recs) == 0 {
		return r
	}
	var sum float64
	bucketSum := map[string]float64{}
	bucketN := map[string]int{}
	for _, c := range recs {
		sum += c.Multiplier
		b := Bucket(c.MaxPE)
		bucketSum[b] += c.Multiplier
		bucketN[b]++
	}
	r.Contracts = len(recs)
	r.MeanMultiplier = sum / float64(len(recs))
	r.BucketMultipliers = map[string]float64{}
	for b, s := range bucketSum {
		r.BucketMultipliers[b] = s / float64(bucketN[b])
	}
	return r
}

// aggEntry is one contract's contribution to the sliding window.
type aggEntry struct {
	bucket string
	mult   float64
}

// Aggregate incrementally maintains the contract-price statistics of
// the last Window settled contracts, so a weather report is O(1) in
// history length instead of a full rescan per request. It is a ring of
// the window's entries plus running sums; Add evicts the oldest entry
// once the window is full. Safe for concurrent use.
type Aggregate struct {
	mu   sync.Mutex
	ring [Window]aggEntry
	n    int // populated entries (≤ Window)
	next int // ring write cursor
	sum  float64
	bSum map[string]float64
	bN   map[string]int
}

// NewAggregate returns an empty aggregate.
func NewAggregate() *Aggregate {
	return &Aggregate{bSum: map[string]float64{}, bN: map[string]int{}}
}

// Add records one settled contract (oldest-first when replaying
// history), evicting the window's oldest entry once full.
func (a *Aggregate) Add(maxPE int, multiplier float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.n == Window {
		old := a.ring[a.next]
		a.sum -= old.mult
		a.bSum[old.bucket] -= old.mult
		if a.bN[old.bucket]--; a.bN[old.bucket] == 0 {
			delete(a.bSum, old.bucket)
			delete(a.bN, old.bucket)
		}
	} else {
		a.n++
	}
	b := Bucket(maxPE)
	a.ring[a.next] = aggEntry{bucket: b, mult: multiplier}
	a.next = (a.next + 1) % Window
	a.sum += multiplier
	a.bSum[b] += multiplier
	a.bN[b]++
}

// Seed replays settled contracts into the aggregate, oldest first —
// the boot path, fed from the database's recent history.
func (a *Aggregate) Seed(recs []db.ContractRecord) {
	for _, c := range recs {
		a.Add(c.MaxPE, c.Multiplier)
	}
}

// Fill completes a report's contract statistics from the aggregate; the
// fleet fields (utilization, servers, PEs) are the caller's to set. The
// result matches Compute over the same window of contracts.
func (a *Aggregate) Fill(r *Report) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.n == 0 {
		return
	}
	r.Contracts = a.n
	r.MeanMultiplier = a.sum / float64(a.n)
	r.BucketMultipliers = make(map[string]float64, len(a.bSum))
	for b, s := range a.bSum {
		r.BucketMultipliers[b] = s / float64(a.bN[b])
	}
}

func (r Report) String() string {
	return fmt.Sprintf("weather{t=%.0f grid=%.0f%% servers=%d contracts=%d mult=%.2f}",
		r.Time, r.GridUtilization*100, r.Servers, r.Contracts, r.MeanMultiplier)
}
