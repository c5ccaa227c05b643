package market

import (
	"fmt"
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

// TestRankBidsMatchesSliceStable pins rankBids' typed sort to the
// reflection-based sort.SliceStable it replaced: the same order under
// every criterion, ties and stability included, on sets small enough
// for the insertion pass and large enough for the merge.
func TestRankBidsMatchesSliceStable(t *testing.T) {
	rng := sim.NewRNG(7)
	for round := 0; round < 400; round++ {
		bids := tiedBids(rng, 1+rng.Intn(64))
		for _, crit := range []Criterion{LeastCost{}, EarliestCompletion{}, Weighted{PriceWeight: 1, TimeWeight: 0.1}} {
			got, want := slices.Clone(bids), slices.Clone(bids)
			rankBids(got, crit)
			sort.SliceStable(want, func(i, j int) bool {
				a, b := want[i], want[j]
				if crit.Less(a, b) {
					return true
				}
				if crit.Less(b, a) {
					return false
				}
				return a.Server < b.Server
			})
			if !slices.Equal(got, want) {
				t.Fatalf("round %d, %s, %d bids:\n got %v\nwant %v", round, crit.Name(), len(bids), got, want)
			}
		}
	}
}

// BenchmarkRankBids times the client-side ranking of one auction's
// replies: 12 is a gridsim flash-crowd round (a live auction-wide one is
// 16), 64 a wide grid. CI holds bids_12 to 0 allocs/op.
func BenchmarkRankBids(b *testing.B) {
	for _, n := range []int{12, 64} {
		b.Run(fmt.Sprintf("bids_%d", n), func(b *testing.B) {
			bids := tiedBids(sim.NewRNG(1), n)
			work := make([]bidding.Bid, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(work, bids)
				rankBids(work, LeastCost{})
			}
		})
	}
}
