package experiments

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// These tests assert the *shape* of each experiment — who wins and
// roughly why — exactly the reproduction standard EXPERIMENTS.md
// records. Absolute values vary with the synthetic workload.

const seed = 42

func TestE1Shape(t *testing.T) {
	tab := E1InternalFragmentation(seed)
	fcfsWait, ok := tab.Get("fcfs", "A_wait_s")
	if !ok {
		t.Fatalf("missing fcfs row:\n%s", tab)
	}
	adaptWait, ok := tab.Get("equipartition latency=0s", "A_wait_s")
	if !ok {
		t.Fatalf("missing adaptive row:\n%s", tab)
	}
	// Rigid FCFS: A waits for B's 3600-second run (submitted at t=100,
	// so 3500 seconds of waiting). Adaptive: A starts immediately.
	if fcfsWait < 3000 {
		t.Fatalf("fcfs wait %v, want ≈3500 (blocked behind B)", fcfsWait)
	}
	if adaptWait != 0 {
		t.Fatalf("adaptive wait %v, want 0", adaptWait)
	}
	// The latency ablation delays B (the job that reconfigures), not A's
	// start.
	b10, _ := tab.Get("equipartition latency=10s", "B_response_s")
	b0, _ := tab.Get("equipartition latency=0s", "B_response_s")
	if b10 <= b0 {
		t.Fatalf("latency=10s B response %v not above latency=0s %v\n%s", b10, b0, tab)
	}
	a10, _ := tab.Get("equipartition latency=10s", "A_wait_s")
	if a10 != 0 {
		t.Fatalf("latency must not delay A's start: wait=%v", a10)
	}
}

func TestE2Shape(t *testing.T) {
	tab := E2ExternalFragmentation(seed)
	lockResp, _ := tab.Get("locked-to-one", "mean_resp_s")
	openResp, _ := tab.Get("open-market", "mean_resp_s")
	if openResp >= lockResp {
		t.Fatalf("open market %v not faster than locked %v\n%s", openResp, lockResp, tab)
	}
	idle2, _ := tab.Get("locked-to-one", "util_s2")
	if idle2 != 0 {
		t.Fatalf("locked run used a forbidden server (util_s2=%v)", idle2)
	}
	open2, _ := tab.Get("open-market", "util_s2")
	if open2 <= 0 {
		t.Fatal("open market never used s2")
	}
}

func TestE3Shape(t *testing.T) {
	tab := E3AdaptiveVsRigid(seed)
	// At the heaviest load, equipartition must beat plain FCFS on mean
	// response time.
	f, ok1 := tab.Get("fcfs gap=5s", "mean_resp_s")
	e, ok2 := tab.Get("equipartition gap=5s", "mean_resp_s")
	if !ok1 || !ok2 {
		t.Fatalf("missing rows:\n%s", tab)
	}
	if e > f {
		t.Fatalf("equipartition %v worse than fcfs %v at saturation\n%s", e, f, tab)
	}
	// Offered load must increase as the gap shrinks.
	l40, _ := tab.Get("fcfs gap=40s", "offered_load")
	l5, _ := tab.Get("fcfs gap=5s", "offered_load")
	if l5 <= l40 {
		t.Fatalf("load sweep broken: gap=5 load %v <= gap=40 load %v", l5, l40)
	}
}

func TestE4Shape(t *testing.T) {
	tab := E4BidStrategies(seed)
	bm, ok := tab.Get("all-baseline", "mean_multiplier")
	if !ok {
		t.Fatalf("missing all-baseline:\n%s", tab)
	}
	if bm != 1.0 {
		t.Fatalf("baseline multiplier %v, want exactly 1.0", bm)
	}
	um, _ := tab.Get("all-utilization", "mean_multiplier")
	if um == 1.0 || um < 0.5 || um > 3.0 {
		t.Fatalf("utilization multiplier %v outside (0.5,3)\n%s", um, tab)
	}
	// Ablation: α=β=0 degenerates to the baseline's multiplier.
	flat, _ := tab.Get("ablation a=0.0 b=0.0", "mean_multiplier")
	if flat != 1.0 {
		t.Fatalf("zero-risk ablation multiplier %v, want 1.0", flat)
	}
}

func TestE5Shape(t *testing.T) {
	tab := E5PayoffAdmission(seed)
	pf, ok := tab.Get("profit lookahead=600s", "total_payoff")
	if !ok {
		t.Fatalf("missing profit row:\n%s", tab)
	}
	acceptAll, _ := tab.Get("fcfs accept-all", "total_payoff")
	if pf <= acceptAll {
		t.Fatalf("profit admission payoff %v not above rigid accept-all %v\n%s", pf, acceptAll, tab)
	}
	// Admission control must actually reject something on this
	// overcommitted workload.
	rej, _ := tab.Get("profit lookahead=600s", "rejected")
	if rej == 0 {
		t.Fatalf("profit scheduler rejected nothing\n%s", tab)
	}
}

func TestE6Shape(t *testing.T) {
	tab := E6Bartering(seed)
	ns, _ := tab.Get("no-sharing", "mean_resp_s")
	sh, _ := tab.Get("bartering", "mean_resp_s")
	if sh >= ns {
		t.Fatalf("bartering %v not faster than no-sharing %v\n%s", sh, ns, tab)
	}
	earned, _ := tab.Get("bartering", "helper_credits")
	spent, _ := tab.Get("bartering", "home_credits_spent")
	if earned <= 0 || spent <= 0 {
		t.Fatalf("credits did not flow: earned=%v spent=%v", earned, spent)
	}
	// Conservation: helpers earned exactly what the home spent.
	if diff := earned - spent; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("credit leak: earned=%v spent=%v", earned, spent)
	}
}

func TestE7Shape(t *testing.T) {
	tab := E7BidScalability(seed)
	m10, _ := tab.Get("n=10 broadcast", "bid_messages")
	m200, _ := tab.Get("n=200 broadcast", "bid_messages")
	if m200 != 20*m10 {
		t.Fatalf("broadcast cost not linear: n=10→%v n=200→%v", m10, m200)
	}
	bb, _ := tab.Get("n=200 broadcast", "bid_messages")
	bf, _ := tab.Get("n=200 filtered", "bid_messages")
	if bf >= bb {
		t.Fatalf("filtering did not reduce messages: %v vs %v", bf, bb)
	}
	screened, _ := tab.Get("n=200 filtered", "screened")
	if screened <= 0 {
		t.Fatal("filter screened nothing")
	}
}

func TestE8Shape(t *testing.T) {
	tab := E8TwoPhaseCommit(seed)
	p2, _ := tab.Get("two-phase", "placed")
	p1, _ := tab.Get("single-phase", "placed")
	if p2 <= p1 {
		t.Fatalf("two-phase placed %v, single-phase %v — firm commitment must win\n%s", p2, p1, tab)
	}
	att, _ := tab.Get("two-phase", "mean_attempts")
	if att <= 1 {
		t.Fatalf("no contention observed (mean attempts %v)", att)
	}
}

// TestAllRunsEveryExperiment also pins the whole suite's output, as
// `faucets-sim -experiment all -seed 42` prints it, byte for byte: it is
// the only pin on CommitDelay (E8), MigrateAfter (X1), Access, HomeFirst
// with barter credits and FilterFeasible. Regenerate testdata only on
// purpose, with that command redirected into testdata/all-seed42.txt.
func TestAllRunsEveryExperiment(t *testing.T) {
	tabs := All(seed)
	if len(tabs) != 10 {
		t.Fatalf("suite has %d experiments, want 10", len(tabs))
	}
	var out strings.Builder
	for _, tab := range tabs {
		if len(tab.Rows) == 0 {
			t.Fatalf("%s produced no rows", tab.ID)
		}
		if !strings.HasPrefix(tab.ID, "E") && !strings.HasPrefix(tab.ID, "X") {
			t.Fatalf("bad id %q", tab.ID)
		}
		s := tab.String()
		if !strings.Contains(s, tab.ID) || !strings.Contains(s, "case") {
			t.Fatalf("table render broken:\n%s", s)
		}
		fmt.Fprintln(&out, s)
	}
	golden, err := os.ReadFile("testdata/all-seed42.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(golden) {
		t.Fatalf("experiment tables drifted from testdata/all-seed42.txt:\n%s", got)
	}
}

func TestByID(t *testing.T) {
	for _, id := range []string{"E1", "e5", "E8", "x1", "X2"} {
		if ByID(id) == nil {
			t.Fatalf("ByID(%q) = nil", id)
		}
	}
	if ByID("E99") != nil {
		t.Fatal("unknown id resolved")
	}
}

func TestTableGetMissing(t *testing.T) {
	tab := &Table{ID: "X", Rows: []Row{{Label: "a", Cols: []Col{V("v", 1)}}}}
	if _, ok := tab.Get("a", "nope"); ok {
		t.Fatal("missing column found")
	}
	if _, ok := tab.Get("nope", "v"); ok {
		t.Fatal("missing row found")
	}
	if v, ok := tab.Get("a", "v"); !ok || v != 1 {
		t.Fatal("present value not found")
	}
}

func TestDeterministicTables(t *testing.T) {
	a := E4BidStrategies(7)
	b := E4BidStrategies(7)
	if a.String() != b.String() {
		t.Fatal("same seed produced different tables")
	}
}

func TestX1Shape(t *testing.T) {
	tab := X1Preemption(seed)
	metNo, _ := tab.Get("profit no-preempt", "urgent_met")
	metPre, _ := tab.Get("profit preempt", "urgent_met")
	if metPre <= metNo {
		t.Fatalf("preemption met %v urgent deadlines vs %v without\n%s", metPre, metNo, tab)
	}
	ck, _ := tab.Get("profit preempt", "checkpoints")
	if ck == 0 {
		t.Fatal("preemption run performed no checkpoints")
	}
	pNo, _ := tab.Get("profit no-preempt", "total_payoff")
	pPre, _ := tab.Get("profit preempt", "total_payoff")
	if pPre <= pNo {
		t.Fatalf("preemption payoff %v not above %v", pPre, pNo)
	}
	// Grid-level migration ablation: migration happens and lowers the
	// mean response time of the preempt-enabled grid.
	migN, _ := tab.Get("grid preempt+migrate", "migrations")
	if migN == 0 {
		t.Fatalf("no migrations recorded\n%s", tab)
	}
	respMig, _ := tab.Get("grid preempt+migrate", "mean_resp_s")
	respNo, _ := tab.Get("grid preempt no-migrate", "mean_resp_s")
	if respMig >= respNo {
		t.Fatalf("migration response %v not below no-migrate %v", respMig, respNo)
	}
}

func TestX2Shape(t *testing.T) {
	tab := X2GridWeather(seed)
	base, _ := tab.Get("baseline", "mean_multiplier")
	if base != 1.0 {
		t.Fatalf("baseline multiplier %v", base)
	}
	wm, _ := tab.Get("weather", "mean_multiplier")
	um, _ := tab.Get("utilization", "mean_multiplier")
	if wm == um || wm == 1.0 {
		t.Fatalf("weather bidder indistinguishable: weather=%v utilization=%v", wm, um)
	}
	// Everyone still places the full workload; pricing is the difference.
	for _, label := range []string{"baseline", "utilization", "weather"} {
		if placed, _ := tab.Get(label, "placed"); placed != 200 {
			t.Fatalf("%s placed %v", label, placed)
		}
	}
}

func TestE3LatencyAblation(t *testing.T) {
	tab := E3AdaptiveVsRigid(seed)
	r0, ok := tab.Get("equi ablation latency=0s", "mean_resp_s")
	if !ok {
		t.Fatalf("missing ablation rows:\n%s", tab)
	}
	r300, _ := tab.Get("equi ablation latency=300s", "mean_resp_s")
	if r300 <= r0 {
		t.Fatalf("response should degrade with reconfiguration latency: %v vs %v", r300, r0)
	}
	// Even at 300s stalls the adaptive scheduler still beats rigid FCFS
	// at this load.
	fcfsHot, _ := tab.Get("fcfs gap=5s", "mean_resp_s")
	if r300 >= fcfsHot {
		t.Fatalf("latency=300s adaptive %v worse than rigid %v", r300, fcfsHot)
	}
}
