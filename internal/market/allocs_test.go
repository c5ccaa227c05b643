//go:build !race

package market

import (
	"fmt"
	"testing"

	"faucets/internal/bidding"
)

// The race detector adds allocations of its own, so the pin stands down
// under -race.

// TestCollectAllocs pins a warm concurrent round: sixteen in-memory
// BidStarters answering at once, ranked into a warm buffer, allocate
// nothing — the round's auction, slots and attempts come back from the
// pool, and the ranking's permutation lives on the stack.
func TestCollectAllocs(t *testing.T) {
	fleet := make([]*fakeServer, 16)
	for i := range fleet {
		fleet[i] = srv(fmt.Sprintf("s%02d", i), float64(1+i%3), float64(10*(1+i%4)))
	}
	servers, c := keepers(fleet...), contract()
	var dst []bidding.Bid
	round := func() {
		dst = FirstPrice{}.Solicit(dst, 0, servers, c, LeastCost{}, SolicitOpts{})
	}
	round()
	if len(dst) != len(fleet) {
		t.Fatalf("bids = %d, want %d", len(dst), len(fleet))
	}
	if got := testing.AllocsPerRun(1000, round); got != 0 {
		t.Errorf("warm collect over %d starters: %v allocs per round, want 0", len(fleet), got)
	}
}
