package weather

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"faucets/internal/db"
)

func TestBucketing(t *testing.T) {
	cases := map[int]string{1: "small", 8: "small", 9: "medium", 64: "medium", 65: "large", 4096: "large"}
	for pe, want := range cases {
		if got := Bucket(pe); got != want {
			t.Errorf("Bucket(%d)=%q want %q", pe, got, want)
		}
	}
}

func TestComputeEmpty(t *testing.T) {
	r := Compute(10, 0, 0, 0, nil)
	if r.GridUtilization != 0 || r.Contracts != 0 {
		t.Fatalf("empty report: %+v", r)
	}
	r = Compute(10, 50, 100, 2, db.New())
	if r.GridUtilization != 0.5 || r.Servers != 2 || r.Contracts != 0 {
		t.Fatalf("report: %+v", r)
	}
}

func TestComputeUtilizationClamped(t *testing.T) {
	r := Compute(0, 200, 100, 1, nil)
	if r.GridUtilization != 1 {
		t.Fatalf("util=%v, want clamped 1", r.GridUtilization)
	}
}

func TestComputePriceStats(t *testing.T) {
	store := db.New()
	store.AppendContract(db.ContractRecord{MaxPE: 4, Multiplier: 1.0})
	store.AppendContract(db.ContractRecord{MaxPE: 32, Multiplier: 2.0})
	store.AppendContract(db.ContractRecord{MaxPE: 128, Multiplier: 3.0})
	r := Compute(5, 10, 100, 3, store)
	if r.Contracts != 3 {
		t.Fatalf("contracts=%d", r.Contracts)
	}
	if math.Abs(r.MeanMultiplier-2.0) > 1e-12 {
		t.Fatalf("mean=%v", r.MeanMultiplier)
	}
	if r.BucketMultipliers["small"] != 1.0 || r.BucketMultipliers["medium"] != 2.0 || r.BucketMultipliers["large"] != 3.0 {
		t.Fatalf("buckets=%v", r.BucketMultipliers)
	}
	if !strings.Contains(r.String(), "weather{") {
		t.Fatalf("String=%q", r.String())
	}
}

func TestComputeWindowLimit(t *testing.T) {
	store := db.New()
	for i := 0; i < Window+50; i++ {
		m := 1.0
		if i < 50 {
			m = 100.0 // old outliers that must age out of the window
		}
		store.AppendContract(db.ContractRecord{MaxPE: 4, Multiplier: m})
	}
	r := Compute(0, 0, 100, 1, store)
	if r.Contracts != Window {
		t.Fatalf("contracts=%d, want %d", r.Contracts, Window)
	}
	if r.MeanMultiplier != 1.0 {
		t.Fatalf("old contracts leaked into the window: mean=%v", r.MeanMultiplier)
	}
}

// TestAggregateMatchesCompute: the incrementally maintained aggregate
// must report the same price statistics as a full Compute rescan at
// every point along a stream longer than the window, so eviction of the
// oldest entry is exercised repeatedly.
func TestAggregateMatchesCompute(t *testing.T) {
	store := db.New()
	agg := NewAggregate()
	for i := 0; i < Window*2+37; i++ {
		// Deterministic spread across all three buckets and a drifting
		// multiplier, so bucket membership keeps changing as entries age
		// out of the window.
		c := db.ContractRecord{
			MaxPE:      []int{2, 8, 16, 64, 65, 400}[i%6],
			Multiplier: 1 + float64(i%13)*0.25,
		}
		store.AppendContract(c)
		agg.Add(c.MaxPE, c.Multiplier)

		want := Compute(float64(i), 10, 100, 3, store)
		got := Report{Time: float64(i), Servers: 3, TotalPE: 100, GridUtilization: 0.1}
		agg.Fill(&got)
		if got.Contracts != want.Contracts {
			t.Fatalf("step %d: contracts=%d want %d", i, got.Contracts, want.Contracts)
		}
		if math.Abs(got.MeanMultiplier-want.MeanMultiplier) > 1e-9 {
			t.Fatalf("step %d: mean=%v want %v", i, got.MeanMultiplier, want.MeanMultiplier)
		}
		if len(got.BucketMultipliers) != len(want.BucketMultipliers) {
			t.Fatalf("step %d: buckets=%v want %v", i, got.BucketMultipliers, want.BucketMultipliers)
		}
		for b, w := range want.BucketMultipliers {
			if math.Abs(got.BucketMultipliers[b]-w) > 1e-9 {
				t.Fatalf("step %d: bucket %s=%v want %v", i, b, got.BucketMultipliers[b], w)
			}
		}
	}
}

// TestAggregateSeedMatchesCompute: booting the aggregate from recorded
// history (oldest first, the Central Server's recovery path) must land
// on the same statistics as a fresh Compute.
func TestAggregateSeedMatchesCompute(t *testing.T) {
	store := db.New()
	for i := 0; i < Window+20; i++ {
		store.AppendContract(db.ContractRecord{MaxPE: 1 + i%80, Multiplier: 1 + float64(i%7)*0.5})
	}
	recent := store.RecentContracts(nil, Window)
	// RecentContracts is newest-first; Seed wants chronological order.
	for i, j := 0, len(recent)-1; i < j; i, j = i+1, j-1 {
		recent[i], recent[j] = recent[j], recent[i]
	}
	agg := NewAggregate()
	agg.Seed(recent)
	want := Compute(0, 0, 0, 0, store)
	var got Report
	agg.Fill(&got)
	if got.Contracts != want.Contracts || math.Abs(got.MeanMultiplier-want.MeanMultiplier) > 1e-9 {
		t.Fatalf("seeded aggregate %+v, want %+v", got, want)
	}
}

// TestSimilarContracts: similarity is the processor-demand bucket, the
// answer is newest first and bounded by limit.
func TestSimilarContracts(t *testing.T) {
	store := db.New()
	for i, maxPE := range []int{4, 32, 8, 128, 2} {
		store.AppendContract(db.ContractRecord{Time: float64(i), JobID: fmt.Sprint(i), MaxPE: maxPE, Multiplier: float64(i)})
	}
	got := SimilarContracts(store, 6, 10)
	if len(got) != 3 || got[0].MaxPE != 2 || got[1].MaxPE != 8 || got[2].MaxPE != 4 {
		t.Fatalf("small bucket: %+v", got)
	}
	if got := SimilarContracts(store, 6, 2); len(got) != 2 || got[0].MaxPE != 2 {
		t.Fatalf("limit 2: %+v", got)
	}
	if got := SimilarContracts(store, 1000, 10); len(got) != 1 || got[0].MaxPE != 128 {
		t.Fatalf("large bucket: %+v", got)
	}
}
