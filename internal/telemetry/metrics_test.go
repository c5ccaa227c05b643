package telemetry

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("faucets_test_total", "test counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Idempotent registration returns the same instance.
	if reg.Counter("faucets_test_total", "test counter") != c {
		t.Fatal("re-registration returned a different counter")
	}

	g := reg.Gauge("faucets_test_depth", "test gauge")
	g.Set(3)
	g.Add(-1.5)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("faucets_test_seconds", "test histogram", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 56.05 {
		t.Fatalf("sum = %v, want 56.05", h.Sum())
	}
	var out strings.Builder
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	// Buckets render cumulatively.
	for _, want := range []string{
		`faucets_test_seconds_bucket{le="0.1"} 1`,
		`faucets_test_seconds_bucket{le="1"} 3`,
		`faucets_test_seconds_bucket{le="10"} 4`,
		`faucets_test_seconds_bucket{le="+Inf"} 5`,
		`faucets_test_seconds_count 5`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("rendered output missing %q:\n%s", want, text)
		}
	}
}

func TestLabelsAndEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("faucets_labeled_total", "labeled", L("type", `a"b\c`)).Inc()
	var out strings.Builder
	_ = reg.WritePrometheus(&out)
	if !strings.Contains(out.String(), `faucets_labeled_total{type="a\"b\\c"} 1`) {
		t.Fatalf("label escaping wrong:\n%s", out.String())
	}
}

func TestKindConflictPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("faucets_conflict", "as counter")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	reg.Gauge("faucets_conflict", "as gauge")
}

func TestHTTPEndpoint(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("faucets_http_total", "c").Inc()
	reg.Gauge("faucets_http_depth", "g").Set(2)
	reg.Histogram("faucets_http_seconds", "h", nil).Observe(0.01)
	tr := NewTracer(0)
	tr.Record("job-1", SpanSubmit, "")

	l, err := Serve("127.0.0.1:0", reg, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	resp, err := http.Get("http://" + l.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	c, g, h, err := CheckExposition(string(body))
	if err != nil {
		t.Fatal(err)
	}
	if c < 1 || g < 1 || h < 1 {
		t.Fatalf("scrape lacks a counter/gauge/histogram: c=%d g=%d h=%d", c, g, h)
	}
	if v, ok := SampleValue(string(body), "faucets_http_total"); !ok || v != 1 {
		t.Fatalf("SampleValue(faucets_http_total) = %v, %v", v, ok)
	}

	resp, err = http.Get("http://" + l.Addr().String() + "/trace/job-1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), SpanSubmit) {
		t.Fatalf("GET /trace/job-1: %d %s", resp.StatusCode, body)
	}
}

// hotPathCase is the instrumented fast path every daemon tick and RPC
// dispatch pays: a counter increment, a gauge store and a histogram
// observation on pre-resolved instruments.
func hotPathCase() func() {
	reg := NewRegistry()
	c := reg.Counter("faucets_alloc_total", "c")
	g := reg.Gauge("faucets_alloc_depth", "g")
	h := reg.Histogram("faucets_alloc_seconds", "h", nil)
	i := 0
	return func() {
		c.Inc()
		g.Set(float64(i))
		h.Observe(float64(i%1000) * 0.0001)
		i++
	}
}

// TestHotPathAllocFree: scrapes format text, updates never allocate.
func TestHotPathAllocFree(t *testing.T) {
	if allocs := testing.AllocsPerRun(1000, hotPathCase()); allocs != 0 {
		t.Fatalf("hot path allocates: %v allocs/op", allocs)
	}
}

// BenchmarkHotPath times hotPathCase.
func BenchmarkHotPath(b *testing.B) {
	update := hotPathCase()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		update()
	}
}

func TestRPCMetricsObserver(t *testing.T) {
	reg := NewRegistry()
	m := NewRPCMetrics(reg, "daemon")
	m.ObserveRPC("settle_req", 2*time.Millisecond, nil)
	m.ObserveRPC("settle_req", 3*time.Millisecond, io.EOF)
	var out strings.Builder
	_ = reg.WritePrometheus(&out)
	if !strings.Contains(out.String(), `faucets_rpc_latency_seconds_count{component="daemon",type="settle_req"} 2`) {
		t.Fatalf("latency count not rendered as 2:\n%s", out.String())
	}
	if !strings.Contains(out.String(), `faucets_rpc_errors_total{component="daemon",type="settle_req"} 1`) {
		t.Fatalf("error counter not rendered:\n%s", out.String())
	}
	// Nil receiver is a no-op sink.
	var nilM *RPCMetrics
	nilM.ObserveRPC("x", time.Millisecond, nil)
}
