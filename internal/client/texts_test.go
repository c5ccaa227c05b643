package client

import (
	"fmt"
	"math"
	"testing"
)

// TestTripTextsMatchFmt pins the submit and bid span details Place
// appends by hand: literally for one placement, and against the fmt
// format each one replaced, over values at the edges of its verbs.
func TestTripTextsMatchFmt(t *testing.T) {
	check := func(got []byte, want string) {
		t.Helper()
		if string(got) != want {
			t.Errorf("%q, want %q", got, want)
		}
	}
	check(submitText(nil, "synth", "alice", 1999.5, 16), "synth by alice: 2000 work for 16 servers")
	check(bidText(nil, 16, "turing", 16.25), "best of 16 bids: turing at price 16.25")

	for _, x := range []float64{0, math.Copysign(0, -1), 0.05, 0.125, 0.5, 1.5, 2.5, 12.34, 16.25, -3.75,
		123456789.987, 1e21, math.SmallestNonzeroFloat64, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()} {
		for _, n := range []int{0, 1, 9, 10, 255, 256, -1, math.MaxInt, math.MinInt} {
			check(submitText(nil, "namd", "bob", x, n), fmt.Sprintf("%s by %s: %.0f work for %d servers", "namd", "bob", x, n))
			check(bidText(nil, n, "lemieux", x), fmt.Sprintf("best of %d bids: %s at price %.2f", n, "lemieux", x))
		}
	}
}
