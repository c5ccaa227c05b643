package market

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"faucets/internal/bidding"
	"faucets/internal/sim"
)

// tiedBids draws n bids whose prices and completions come from three
// values each and whose server names repeat now and then, so criterion
// ties, name ties and fully equal keys all occur; Multiplier numbers the
// bids so that equal keys stay distinguishable.
func tiedBids(rng *sim.RNG, n int) []bidding.Bid {
	bids := make([]bidding.Bid, n)
	for i := range bids {
		bids[i] = bidding.Bid{
			Server:        fmt.Sprintf("s%02d", rng.Intn(2*n)),
			Price:         float64(1 + rng.Intn(3)),
			EstCompletion: float64(10 * (1 + rng.Intn(3))),
			Multiplier:    float64(i),
		}
	}
	return bids
}

// oddValues are the keys that break a naive comparison: NaN (unordered
// against everything, itself included), the infinities and signed zeros.
var oddValues = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1, 2}

// oddBids is tiedBids with some prices and completions drawn from
// oddValues instead, and server names from a pool small enough that
// duplicates are common.
func oddBids(rng *sim.RNG, n int) []bidding.Bid {
	bids := tiedBids(rng, n)
	for i := range bids {
		bids[i].Server = fmt.Sprintf("s%d", rng.Intn(1+n/4))
		if rng.Intn(3) == 0 {
			bids[i].Price = oddValues[rng.Intn(len(oddValues))]
		}
		if rng.Intn(3) == 0 {
			bids[i].EstCompletion = oddValues[rng.Intn(len(oddValues))]
		}
	}
	return bids
}

// lessBefore is each criterion's Less as it was before Compare replaced
// it, kept as the reference Compare is held to.
func lessBefore(crit Criterion, a, b bidding.Bid) bool {
	switch c := crit.(type) {
	case LeastCost:
		if a.Price != b.Price {
			return a.Price < b.Price
		}
		return a.EstCompletion < b.EstCompletion
	case EarliestCompletion:
		if a.EstCompletion != b.EstCompletion {
			return a.EstCompletion < b.EstCompletion
		}
		return a.Price < b.Price
	case Weighted:
		sa := c.PriceWeight*a.Price + c.TimeWeight*a.EstCompletion
		sb := c.PriceWeight*b.Price + c.TimeWeight*b.EstCompletion
		return sa < sb
	}
	panic("unknown criterion")
}

var criteria = []Criterion{LeastCost{}, EarliestCompletion{}, Weighted{PriceWeight: 1, TimeWeight: 0.1}}

// TestCompareMatchesLessBefore: Compare is −1 exactly when the old
// Less(a, b) held, +1 exactly when Less(b, a) did, else 0 — over every
// pair of odd values, NaN and the infinities included.
func TestCompareMatchesLessBefore(t *testing.T) {
	for _, crit := range criteria {
		for _, p1 := range oddValues {
			for _, e1 := range oddValues {
				for _, p2 := range oddValues {
					for _, e2 := range oddValues {
						a := bidding.Bid{Price: p1, EstCompletion: e1}
						b := bidding.Bid{Price: p2, EstCompletion: e2}
						want := 0
						if lessBefore(crit, a, b) {
							want = -1
						} else if lessBefore(crit, b, a) {
							want = 1
						}
						if got := crit.Compare(&a, &b); got != want {
							t.Fatalf("%s.Compare(%v, %v) = %d, want %d", crit.Name(), a, b, got, want)
						}
					}
				}
			}
		}
	}
}

// TestRankBidsMatchesSliceStable pins rankBids to the reflection-based
// sort.SliceStable over the old Less: the same order under every
// criterion, ties and stability included, on sets small enough for the
// insertion pass, large enough for the merge and past the permutation's
// stack array — with NaNs, infinities and duplicate server names, where
// the order depends on which comparisons the sort makes.
func TestRankBidsMatchesSliceStable(t *testing.T) {
	rng := sim.NewRNG(7)
	for round := 0; round < 600; round++ {
		bids := tiedBids(rng, 1+rng.Intn(200))
		if round%2 == 1 {
			bids = oddBids(rng, 1+rng.Intn(200))
		}
		for _, crit := range criteria {
			got, want := slices.Clone(bids), slices.Clone(bids)
			rankBids(got, crit)
			sort.SliceStable(want, func(i, j int) bool {
				a, b := want[i], want[j]
				if lessBefore(crit, a, b) {
					return true
				}
				if lessBefore(crit, b, a) {
					return false
				}
				return a.Server < b.Server
			})
			if !identical(got, want) {
				t.Fatalf("round %d, %s, %d bids:\n got %v\nwant %v", round, crit.Name(), len(bids), got, want)
			}
		}
	}
}

// identical compares bids bit for bit, so a NaN equals itself and −0 is
// not +0.
func identical(a, b []bidding.Bid) bool {
	return slices.EqualFunc(a, b, func(x, y bidding.Bid) bool {
		same := func(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) }
		return x.Server == y.Server && same(x.Price, y.Price) && same(x.Multiplier, y.Multiplier) &&
			same(x.EstCompletion, y.EstCompletion) && same(x.ExpiresAt, y.ExpiresAt)
	})
}

// rankCase is the client-side ranking of one auction's n replies, copied
// into a warm buffer first.
func rankCase(n int) func() {
	bids := tiedBids(sim.NewRNG(1), n)
	work := make([]bidding.Bid, n)
	return func() {
		copy(work, bids)
		rankBids(work, LeastCost{})
	}
}

// BenchmarkRankBids times rankCase: 12 is a gridsim flash-crowd round (a
// live auction-wide one is 16), 64 a wide grid. TestRankBidsAllocs pins
// bids_12 at 0 allocs/op.
func BenchmarkRankBids(b *testing.B) {
	for _, n := range []int{12, 64} {
		b.Run(fmt.Sprintf("bids_%d", n), func(b *testing.B) {
			rank := rankCase(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rank()
			}
		})
	}
}

// solicitSerialCase is one gridsim round's solicitation: the serial walk
// over 12 in-memory ports, ranked into the dst the last round left.
func solicitSerialCase() func() {
	servers := make([]ServerPort, 12)
	for i := range servers {
		servers[i] = srv(fmt.Sprintf("s%02d", i), float64(1+i%3), float64(10*(1+i%4)))
	}
	c, serial := contract(), SolicitOpts{Concurrency: 1}
	var dst []bidding.Bid
	return func() { dst = FirstPrice{}.Solicit(dst, 0, servers, c, LeastCost{}, serial) }
}

// BenchmarkSolicitSerial times solicitSerialCase. TestSolicitSerialAllocs
// pins ports_12 at 0 allocs/op: the bids land in the caller's buffer.
func BenchmarkSolicitSerial(b *testing.B) {
	b.Run("ports_12", func(b *testing.B) {
		solicit := solicitSerialCase()
		solicit()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			solicit()
		}
	})
}
