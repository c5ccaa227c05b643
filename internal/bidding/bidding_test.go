package bidding

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"faucets/internal/machine"
	"faucets/internal/qos"
)

func contract() *qos.Contract {
	return &qos.Contract{App: "cfd", MinPE: 4, MaxPE: 16, Work: 1600, Deadline: 1000}
}

func idle() ServerState {
	return ServerState{NumPE: 64, UsedPE: 0, QueuedWork: 0, Speed: 1.0, CostRate: 0.01,
		EstimatedCompletion: 100, CanRun: true}
}

func busy() ServerState {
	return ServerState{NumPE: 64, UsedPE: 64, QueuedWork: 64 * 10000, Speed: 1.0, CostRate: 0.01,
		EstimatedCompletion: 500, CanRun: true}
}

func TestBaselineAlwaysOne(t *testing.T) {
	var b Baseline
	m, ok := b.Multiplier(0, contract(), idle())
	if !ok || m != 1.0 {
		t.Fatalf("idle: m=%v ok=%v", m, ok)
	}
	m, ok = b.Multiplier(0, contract(), busy())
	if !ok || m != 1.0 {
		t.Fatalf("busy: m=%v ok=%v", m, ok)
	}
}

func TestGeneratorsDeclineWhenSchedulerDeclines(t *testing.T) {
	st := idle()
	st.CanRun = false
	gens := []Generator{Baseline{}, NewUtilization(), NewHistory(stubHistory{})}
	for _, g := range gens {
		if _, ok := g.Multiplier(0, contract(), st); ok {
			t.Errorf("%s bid on a job the scheduler declined", g.Name())
		}
	}
}

func TestPriceFormula(t *testing.T) {
	c := contract()
	st := idle()
	// CPU-seconds at MaxPE=16, perfectly scalable: work stays 1600
	// CPU-seconds; price = 1600 * 0.01 * multiplier.
	if got := Price(c, st, 1.0); math.Abs(got-16.0) > 1e-9 {
		t.Fatalf("Price x1 = %v, want 16", got)
	}
	if got := Price(c, st, 2.5); math.Abs(got-40.0) > 1e-9 {
		t.Fatalf("Price x2.5 = %v, want 40", got)
	}
}

func TestUtilizationBounds(t *testing.T) {
	u := NewUtilization() // k=1, α=0.5, β=2.0
	mIdle, ok := u.Multiplier(0, contract(), idle())
	if !ok {
		t.Fatal("declined on idle server")
	}
	if math.Abs(mIdle-0.5) > 1e-9 { // k(1-α) at utilization 0
		t.Fatalf("idle multiplier = %v, want 0.5", mIdle)
	}
	mBusy, ok := u.Multiplier(0, contract(), busy())
	if !ok {
		t.Fatal("declined on busy server")
	}
	if mBusy <= mIdle {
		t.Fatalf("busy multiplier %v not above idle %v", mBusy, mIdle)
	}
	if mBusy > 3.0+1e-9 { // k(1+β)
		t.Fatalf("multiplier %v exceeds k(1+β)=3", mBusy)
	}
}

func TestUtilizationFullyBusyHitsCeiling(t *testing.T) {
	u := NewUtilization()
	st := busy()
	// Queued work far exceeds the deadline horizon → forecast ≈ 1.0.
	st.QueuedWork = 1e12
	m, _ := u.Multiplier(0, contract(), st)
	if math.Abs(m-3.0) > 0.01 {
		t.Fatalf("saturated multiplier = %v, want ≈3.0", m)
	}
}

func TestForecastUtilizationWindow(t *testing.T) {
	c := contract() // deadline 1000
	st := idle()
	st.UsedPE = 32 // half busy
	// Work drains in 500s on 64 PEs: busy half the horizon at util 0.5.
	st.QueuedWork = 64 * 500
	got := ForecastUtilization(0, c, st)
	want := 0.5 * 500 / 1000
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("forecast = %v, want %v", got, want)
	}
}

func TestForecastNoDeadlineUsesDrainHorizon(t *testing.T) {
	c := &qos.Contract{App: "x", MinPE: 1, MaxPE: 4, Work: 100}
	st := idle()
	st.UsedPE = 64
	st.QueuedWork = 64 * 100 // drains in 100s
	got := ForecastUtilization(0, c, st)
	if math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("forecast = %v, want 1.0 (busy for the whole drain window)", got)
	}
}

func TestForecastDegenerate(t *testing.T) {
	c := &qos.Contract{App: "x", MinPE: 1, MaxPE: 1, Work: 1}
	if got := ForecastUtilization(0, c, ServerState{NumPE: 0}); got != 1 {
		t.Fatalf("zero-PE forecast = %v", got)
	}
	st := idle() // no queued work, no deadline
	st.UsedPE = 16
	if got := ForecastUtilization(0, c, st); math.Abs(got-0.25) > 1e-9 {
		t.Fatalf("no-horizon forecast = %v, want instantaneous 0.25", got)
	}
}

// Property: the utilization multiplier always lies in [k(1−α), k(1+β)].
func TestUtilizationRangeProperty(t *testing.T) {
	u := NewUtilization()
	f := func(used uint8, queued uint32, deadline uint16) bool {
		st := idle()
		st.UsedPE = int(used) % (st.NumPE + 1)
		st.QueuedWork = float64(queued)
		c := contract()
		c.Deadline = float64(deadline)
		m, ok := u.Multiplier(0, c, st)
		if !ok {
			return false
		}
		return m >= 0.5-1e-9 && m <= 3.0+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

type stubHistory struct {
	recs []HistoryRecord
}

func (s stubHistory) SimilarContracts(_ float64, _ *qos.Contract, limit int) []HistoryRecord {
	if len(s.recs) > limit {
		return s.recs[:limit]
	}
	return s.recs
}

func TestHistoryAveragesRecentContracts(t *testing.T) {
	h := NewHistory(stubHistory{recs: []HistoryRecord{
		{Multiplier: 1.0}, {Multiplier: 2.0}, {Multiplier: 3.0},
	}})
	m, ok := h.Multiplier(0, contract(), idle())
	if !ok || math.Abs(m-2.0) > 1e-9 {
		t.Fatalf("m=%v ok=%v, want 2.0", m, ok)
	}
}

func TestHistoryBounds(t *testing.T) {
	low := NewHistory(stubHistory{recs: []HistoryRecord{{Multiplier: 0.01}}})
	m, _ := low.Multiplier(0, contract(), idle())
	if m != low.Floor {
		t.Fatalf("floor not applied: %v", m)
	}
	high := NewHistory(stubHistory{recs: []HistoryRecord{{Multiplier: 100}}})
	m, _ = high.Multiplier(0, contract(), idle())
	if m != high.Cap {
		t.Fatalf("cap not applied: %v", m)
	}
}

func TestHistoryFallsBackWhenEmpty(t *testing.T) {
	h := NewHistory(stubHistory{})
	m, ok := h.Multiplier(0, contract(), idle())
	if !ok {
		t.Fatal("declined with empty history")
	}
	// Must match the utilization fallback on an idle machine.
	want, _ := NewUtilization().Multiplier(0, contract(), idle())
	if m != want {
		t.Fatalf("fallback m=%v, want %v", m, want)
	}
}

func TestMakeAssemblesBid(t *testing.T) {
	b, ok := Make(Baseline{}, "turing", 100, contract(), idle(), 30)
	if !ok {
		t.Fatal("declined")
	}
	if b.Server != "turing" || b.Multiplier != 1.0 {
		t.Fatalf("bid=%+v", b)
	}
	if b.ExpiresAt != 130 {
		t.Fatalf("expiry=%v, want 130", b.ExpiresAt)
	}
	if b.EstCompletion != 100 {
		t.Fatalf("estCompletion=%v", b.EstCompletion)
	}
	if b.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestMakeDeclines(t *testing.T) {
	st := idle()
	st.CanRun = false
	if _, ok := Make(Baseline{}, "t", 0, contract(), st, 30); ok {
		t.Fatal("Make produced a bid for a declined job")
	}
}

type negativeGen struct{}

func (negativeGen) Name() string { return "neg" }
func (negativeGen) Multiplier(float64, *qos.Contract, ServerState) (float64, bool) {
	return -5, true
}

func TestMakeClampsNegativeMultiplier(t *testing.T) {
	b, ok := Make(negativeGen{}, "t", 0, contract(), idle(), 30)
	if !ok || b.Price != 0 || b.Multiplier != 0 {
		t.Fatalf("negative multiplier not clamped: %+v", b)
	}
}

// TestByName: every strategy name resolves to a fresh generator of that
// name, the empty name to baseline; weather and history come unwired.
func TestByName(t *testing.T) {
	for name, want := range map[string]string{
		"": "baseline", "baseline": "baseline", "utilization": "utilization",
		"weather": "weather", "history": "history",
	} {
		g, err := ByName(name)
		if err != nil || g.Name() != want {
			t.Fatalf("%q: generator %v, err %v; want %s", name, g, err, want)
		}
	}
	a, _ := ByName("weather")
	b, _ := ByName("weather")
	if a == b || a.(*Weather).Source != nil {
		t.Fatal("weather generators must be fresh and come without a source")
	}
	if h, _ := ByName("history"); h.(*History).View != nil {
		t.Fatal("history generator must come without a view")
	}
	if _, err := ByName("oracle"); err == nil || !strings.Contains(err.Error(), "utilization") {
		t.Fatalf("unknown name: err = %v, want one naming the valid strategies", err)
	}
}

// TestMultiplierOfInvertsPrice: the history records the multiplier a
// contract was bid at, so MultiplierOf must read Price backwards for any
// server and contract — and say 0, "unknown", when a factor is missing.
func TestMultiplierOfInvertsPrice(t *testing.T) {
	prop := func(m, rate, speed float64, work uint16) bool {
		m, rate, speed = 0.25+math.Mod(math.Abs(m), 4), 0.001+math.Mod(math.Abs(rate), 1), 0.5+math.Mod(math.Abs(speed), 4)
		c := &qos.Contract{App: "cfd", MinPE: 4, MaxPE: 16, Work: 1 + float64(work)}
		st := ServerState{Speed: speed, CostRate: rate}
		got := MultiplierOf(Price(c, st, m), c.CPUSeconds(c.MaxPE, speed), rate)
		return math.Abs(got-m) < 1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
	if MultiplierOf(10, 0, 0.01) != 0 || MultiplierOf(10, 100, 0) != 0 {
		t.Fatal("a missing factor must read as multiplier 0")
	}
}

type fixedEstimator struct {
	est  float64
	ok   bool
	used int
}

func (f fixedEstimator) EstimateCompletion(float64, *qos.Contract) (float64, bool) {
	return f.est, f.ok
}
func (f fixedEstimator) UsedPEs() int { return f.used }

// TestStateConstructors: a bid's state is the spec, the scheduler's verdict
// and the queued work; a posted state is the spec and the published load,
// with no estimate and no queue.
func TestStateConstructors(t *testing.T) {
	spec := &machine.Spec{Name: "m", NumPE: 64, Speed: 2, CostRate: 0.02}
	got := StateFor(spec, fixedEstimator{est: 120, ok: true, used: 48}, 10, contract(), 3200)
	want := ServerState{NumPE: 64, UsedPE: 48, QueuedWork: 3200, Speed: 2, CostRate: 0.02, EstimatedCompletion: 120, CanRun: true}
	if got != want {
		t.Fatalf("StateFor = %+v, want %+v", got, want)
	}
	if got := PostedState(spec, 16, true); got != (ServerState{NumPE: 64, UsedPE: 16, Speed: 2, CostRate: 0.02, CanRun: true}) {
		t.Fatalf("PostedState = %+v", got)
	}
}
