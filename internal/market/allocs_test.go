//go:build !race

package market

import (
	"fmt"
	"testing"

	"faucets/internal/bidding"
)

// The race detector adds allocations of its own, so the pins stand down
// under -race.

// TestRankBidsAllocs pins BenchmarkRankBids/bids_12: ranking a round's
// twelve replies allocates nothing.
func TestRankBidsAllocs(t *testing.T) {
	if got := testing.AllocsPerRun(1000, rankCase(12)); got != 0 {
		t.Errorf("rankBids over 12 bids: %v allocs, want 0", got)
	}
}

// TestSolicitSerialAllocs pins BenchmarkSolicitSerial/ports_12: a serial
// solicitation ranked into a warm buffer allocates nothing.
func TestSolicitSerialAllocs(t *testing.T) {
	if got := testing.AllocsPerRun(1000, solicitSerialCase()); got != 0 {
		t.Errorf("serial solicitation over 12 ports: %v allocs, want 0", got)
	}
}

// TestSolicitWithBreakersAllocs pins BenchmarkSolicitWithBreakers: the
// breaker gate's all-healthy fan-out stays within 14 allocations.
func TestSolicitWithBreakersAllocs(t *testing.T) {
	if got := testing.AllocsPerRun(200, breakersCase(t)); got > 14 {
		t.Errorf("13-way fan-out behind closed breakers: %v allocs, want ≤ 14", got)
	}
}

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
