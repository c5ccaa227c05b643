package grid

import (
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"faucets/internal/market"
	"faucets/internal/telemetry"
)

// scrape fetches one component's Prometheus exposition.
func scrape(t *testing.T, addr string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("scrape %s: %v", addr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape %s: status %d", addr, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("scrape %s: %v", addr, err)
	}
	return string(body)
}

// waitForSample polls a scrape endpoint until the selected sample reaches
// want (settlement is asynchronous: the daemon's outbox delivers it after
// the job finishes).
func waitForSample(t *testing.T, addr, selector string, want float64) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		text := scrape(t, addr)
		if v, ok := telemetry.SampleValue(text, selector); ok && v >= want {
			return text
		}
		if time.Now().After(deadline) {
			v, ok := telemetry.SampleValue(text, selector)
			t.Fatalf("%s never reached %v (last=%v found=%v)", selector, want, v, ok)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGridMetricsEndToEnd runs a real workload through the loopback grid
// and asserts the scraped numbers agree with it: every component's
// /metrics is valid exposition text with at least one counter, gauge, and
// histogram; the Central Server's settled-jobs counter matches the number
// of jobs run; and the per-RPC latency histograms saw traffic.
func TestGridMetricsEndToEnd(t *testing.T) {
	g := threeClusterGrid(t, Options{Metrics: true})
	cl, err := g.Login("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}

	const jobs = 3
	for i := 0; i < jobs; i++ {
		p, err := cl.Place(contract(100), market.LeastCost{})
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Start(p); err != nil {
			t.Fatal(err)
		}
		if st, err := cl.WaitFinished(p, 20*time.Second); err != nil || st.State != "finished" {
			t.Fatalf("job %d: st=%+v err=%v", i, st, err)
		}
	}

	// Settlement counts are exact: every finished job settles exactly once.
	central := waitForSample(t, g.MetricsAddr("central"),
		"faucets_central_jobs_settled_total", jobs)
	if v, _ := telemetry.SampleValue(central, "faucets_central_jobs_settled_total"); v != jobs {
		t.Fatalf("jobs_settled_total=%v, want exactly %d", v, jobs)
	}
	// The served-RPC histogram saw the whole conversation.
	if v, ok := telemetry.SampleValue(central, `faucets_rpc_latency_seconds_count{component="central"`); !ok || v == 0 {
		t.Fatalf("central rpc latency count=%v found=%v", v, ok)
	}

	// Daemons: admissions across the fleet equal jobs run, and each
	// daemon's outgoing-RPC histogram recorded its register + settle calls.
	var admitted, acked float64
	for _, name := range []string{"fd-turing", "fd-lemieux", "fd-tungsten"} {
		addr := g.MetricsAddr(name)
		if addr == "" {
			t.Fatalf("no metrics endpoint for %s", name)
		}
		text := scrape(t, addr)
		adm, _ := telemetry.SampleValue(text, "faucets_daemon_jobs_admitted_total")
		admitted += adm
		ack, _ := telemetry.SampleValue(text, "faucets_daemon_settlements_acked_total")
		acked += ack
		if v, ok := telemetry.SampleValue(text, `faucets_rpc_latency_seconds_count{component="daemon"`); !ok || v == 0 {
			t.Fatalf("%s rpc latency count=%v found=%v", name, v, ok)
		}
	}
	if admitted != jobs {
		t.Fatalf("fleet admitted %v jobs, want %d", admitted, jobs)
	}
	if acked != jobs {
		t.Fatalf("fleet acked %v settlements, want %d", acked, jobs)
	}

	// AppSpector ingested telemetry for every job.
	asText := scrape(t, g.MetricsAddr("appspector"))
	if v, _ := telemetry.SampleValue(asText, "faucets_appspector_samples_total"); v == 0 {
		t.Fatal("appspector ingested no samples")
	}
	if v, _ := telemetry.SampleValue(asText, "faucets_appspector_jobs"); v != jobs {
		t.Fatalf("appspector jobs gauge=%v, want %d", v, jobs)
	}

	// Every component's exposition is well-formed and carries all three
	// metric kinds.
	for _, name := range []string{"central", "appspector", "fd-turing", "fd-lemieux", "fd-tungsten"} {
		text := scrape(t, g.MetricsAddr(name))
		c, ga, h, err := telemetry.CheckExposition(text)
		if err != nil {
			t.Fatalf("%s exposition: %v", name, err)
		}
		if c < 1 || ga < 1 || h < 1 {
			t.Fatalf("%s exposition kinds: counters=%d gauges=%d histograms=%d", name, c, ga, h)
		}
	}
}

// TestJobTraceFullSpanChain runs one job to settlement and asserts the
// shared tracer holds its complete ordered lifecycle:
// submit → bid → contract → start → … → finish → settle.
func TestJobTraceFullSpanChain(t *testing.T) {
	g := threeClusterGrid(t, Options{Metrics: true})
	cl, err := g.Login("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	p, err := cl.Place(contract(200), market.LeastCost{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(p); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.WaitFinished(p, 20*time.Second); err != nil {
		t.Fatal(err)
	}

	// The settle span lands only after the outbox delivers and the ack
	// comes back, so poll for it.
	var names []string
	deadline := time.Now().Add(10 * time.Second)
	for {
		names = names[:0]
		for _, e := range g.Tracer.Events(p.JobID) {
			names = append(names, e.Name)
		}
		if len(names) > 0 && names[len(names)-1] == telemetry.SpanSettle {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace never completed: %v", names)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Strip the optional adaptive-reallocation spans; what remains must be
	// exactly the canonical chain, in order.
	var core []string
	for _, n := range names {
		if n == telemetry.SpanShrink || n == telemetry.SpanExpand {
			continue
		}
		core = append(core, n)
	}
	want := []string{
		telemetry.SpanSubmit, telemetry.SpanBid, telemetry.SpanContract,
		telemetry.SpanStart, telemetry.SpanFinish, telemetry.SpanSettle,
	}
	if fmt.Sprint(core) != fmt.Sprint(want) {
		t.Fatalf("span chain = %v (full %v), want %v", core, names, want)
	}

	// The grid's /trace endpoints expose the same trace over HTTP.
	resp, err := http.Get("http://" + g.MetricsAddr("central") + "/trace/" + p.JobID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /trace/%s: status %d", p.JobID, resp.StatusCode)
	}
}

// TestMetricsSurviveRestart exercises the scrape-through-restart path:
// after RestartDaemon swaps the component, the same endpoint serves the
// replacement's (fresh) registry rather than the dead daemon's.
func TestMetricsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	g := threeClusterGrid(t, Options{Metrics: true, StateDir: dir, ReRegister: 50 * time.Millisecond})
	cl, err := g.Login("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	p, err := cl.Place(contract(100), market.LeastCost{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(p); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.WaitFinished(p, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	name := "fd-" + p.Server.Spec.Name
	waitForSample(t, g.MetricsAddr(name), "faucets_daemon_jobs_finished_total", 1)

	if err := g.RestartDaemon(p.Server.Spec.Name); err != nil {
		t.Fatal(err)
	}
	// The endpoint survives and serves the replacement's registry: the
	// finished-jobs counter is back to zero (in-memory metrics are not
	// journaled), and the exposition is still well-formed.
	text := scrape(t, g.MetricsAddr(name))
	if _, _, _, err := telemetry.CheckExposition(text); err != nil {
		t.Fatalf("post-restart exposition: %v", err)
	}
	if v, ok := telemetry.SampleValue(text, "faucets_daemon_jobs_finished_total"); !ok || v != 0 {
		t.Fatalf("post-restart finished counter=%v found=%v, want fresh 0", v, ok)
	}
}
