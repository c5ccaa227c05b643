package daemon

import (
	"fmt"
	"math"
	"testing"
)

// TestTripTextsMatchFmt pins every span detail, sample text and output
// line the daemon appends by hand: literally for one trip, and against
// the fmt format each one replaced, over values at the edges of its
// verbs. The benchmark's auction check reads "committed to <server> "
// out of the contract span.
func TestTripTextsMatchFmt(t *testing.T) {
	check := func(got []byte, want string) {
		t.Helper()
		if string(got) != want {
			t.Errorf("%q, want %q", got, want)
		}
	}
	out, n := outputText(nil, 12.34, "job-7", 42, 200, 199.5)
	check(committedText(nil, "turing", 16.25), "committed to turing at price 16.25")
	check(startedText(nil, "turing", 16), "started on turing with 16 PEs")
	check(resizedText(nil, 2, 16), "2 -> 16 PEs")
	check(killedText(nil, "job-7", "alice"), "job-7 killed by alice")
	check(finishedText(nil, "job-7", 12.34), "job-7 finished at 12.3")
	check(cpuText(nil, 199.5), "200 CPU-seconds")
	check(out[:n], "[12.3] job-7 completed as fauc-tmp-000042: 200 CPU-seconds\n")
	check(out[n:], "job=job-7 user=fauc-tmp-000042 work=200 cpu=200\n")

	floats := []float64{0, math.Copysign(0, -1), 0.05, 0.125, 0.5, 1.5, 2.5, 12.34, 16.25, -3.75,
		123456789.987, 1e21, math.SmallestNonzeroFloat64, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	for _, x := range floats {
		check(committedText(nil, "lemieux", x), fmt.Sprintf("committed to %s at price %.2f", "lemieux", x))
		check(finishedText(nil, "job-1", x), fmt.Sprintf("%s finished at %.1f", "job-1", x))
		check(cpuText(nil, x), fmt.Sprintf("%.0f CPU-seconds", x))
		for _, tmp := range []uint64{0, 1, 9, 10, 99999, 100000, 999999, 1000000, math.MaxUint64} {
			out, n := outputText(nil, x, "job-1", tmp, -x, x)
			check(out[:n], fmt.Sprintf("[%.1f] %s completed as fauc-tmp-%06d: %.0f CPU-seconds\n", x, "job-1", tmp, x))
			check(out[n:], fmt.Sprintf("job=%s user=fauc-tmp-%06d work=%.0f cpu=%.0f\n", "job-1", tmp, -x, x))
		}
	}
	pess := []int{0, 1, 9, 10, 255, 256, -1, math.MaxInt, math.MinInt}
	for _, pes := range pess {
		check(startedText(nil, "lemieux", pes), fmt.Sprintf("started on %s with %d PEs", "lemieux", pes))
		for _, to := range pess {
			check(resizedText(nil, pes, to), fmt.Sprintf("%d -> %d PEs", pes, to))
		}
	}
	for _, s := range []string{"", "bob", "job with spaces", "π%d\x00"} {
		check(killedText(nil, s, "alice"), fmt.Sprintf("%s killed by %s", s, "alice"))
		check(killedText(nil, "job-1", s), fmt.Sprintf("%s killed by %s", "job-1", s))
	}
}
