package gridsim

import (
	"errors"
	"sort"
	"testing"

	"faucets/internal/qos"
	"faucets/internal/workload"
)

// totalRevenue sums in server-name order: float addition is not
// associative, so map-iteration order would make equal runs compare
// unequal in the last bit.
func totalRevenue(r *Result) float64 {
	names := make([]string, 0, len(r.Revenue))
	for name := range r.Revenue {
		names = append(names, name)
	}
	sort.Strings(names)
	var sum float64
	for _, name := range names {
		sum += r.Revenue[name]
	}
	return sum
}

func runMech(t *testing.T, mech string, tr *workload.Trace) *Result {
	t.Helper()
	cfg := Config{
		Mechanism: mech,
		Servers:   []ServerConfig{{Spec: spec("s1", 32)}, {Spec: spec("s2", 32)}, {Spec: spec("s3", 32)}},
	}
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Every mechanism must place and finish work on the standard fixture,
// and the pricing rules must be visible in the revenue: vickrey pays
// the runner-up (never less than first-price on the same trace), and
// posted-price clears at the published 1+utilization schedule.
func TestMechanismsPlaceAndPriceDifferently(t *testing.T) {
	tr := smallTrace(7, 60, 5)
	first := runMech(t, "", tr)
	explicit := runMech(t, qos.MechanismFirstPrice, tr)
	vick := runMech(t, qos.MechanismVickrey, tr)
	posted := runMech(t, qos.MechanismPostedPrice, tr)

	if first.Placed != explicit.Placed || totalRevenue(first) != totalRevenue(explicit) {
		t.Fatalf("default (%d, %v) differs from explicit first-price (%d, %v)",
			first.Placed, totalRevenue(first), explicit.Placed, totalRevenue(explicit))
	}
	for name, r := range map[string]*Result{"vickrey": vick, "posted-price": posted} {
		if r.Placed == 0 || r.Finished != r.Placed {
			t.Fatalf("%s: placed %d finished %d", name, r.Placed, r.Finished)
		}
	}
	if vick.Placed != first.Placed {
		t.Fatalf("vickrey placed %d, first-price %d: same solicitation must award alike", vick.Placed, first.Placed)
	}
	if totalRevenue(vick) < totalRevenue(first) {
		t.Fatalf("vickrey revenue %v < first-price %v: runner-up pricing cannot pay below own bid",
			totalRevenue(vick), totalRevenue(first))
	}
	// Posted prices skip the bid round trip entirely: the request/bid
	// message tallies collapse to post reads.
	if posted.Metrics.C("messages.post_read").Value() == 0 {
		t.Fatal("posted-price run recorded no post reads")
	}
	if posted.Metrics.C("messages.bid_req").Value() != 0 || posted.Metrics.C("messages.bid_reply").Value() != 0 {
		t.Fatal("posted-price run still exchanged auction bids")
	}
	if first.Metrics.C("messages.bid_req").Value() == 0 {
		t.Fatal("first-price run exchanged no auction bids")
	}
	if first.Metrics.C("messages.post_read").Value() != 0 {
		t.Fatal("first-price run read commodity posts")
	}
}

// A per-contract mechanism override beats the grid default, and an
// unknown name rejects that job deterministically instead of falling
// back silently.
func TestPerContractMechanismOverride(t *testing.T) {
	tr := smallTrace(3, 10, 50)
	for i := range tr.Items {
		tr.Items[i].Contract.Mechanism = qos.MechanismPostedPrice
	}
	res := runMech(t, qos.MechanismFirstPrice, tr)
	if res.Placed == 0 || res.Metrics.C("messages.post_read").Value() == 0 {
		t.Fatalf("override ignored: placed=%d post_reads=%v", res.Placed,
			res.Metrics.C("messages.post_read").Value())
	}

	tr2 := smallTrace(3, 10, 50)
	tr2.Items[0].Contract.Mechanism = "dutch"
	res2 := runMech(t, "", tr2)
	if res2.Rejected == 0 {
		t.Fatal("unknown per-contract mechanism was not rejected")
	}
}

func TestRunUnknownMechanism(t *testing.T) {
	cfg := Config{Mechanism: "dutch", Servers: []ServerConfig{{Spec: spec("s1", 32)}}}
	if _, err := Run(cfg, smallTrace(1, 1, 1)); !errors.Is(err, qos.ErrMechanism) {
		t.Fatalf("err=%v, want ErrMechanism", err)
	}
}
