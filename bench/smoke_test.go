package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func readJSON(t *testing.T, path string, into any) {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, into); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// driverOutput is the last line of standard output, as the driver reads it.
type driverOutput struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func runBench(t *testing.T, args ...string) driverOutput {
	t.Helper()
	var stdout bytes.Buffer
	args = append(args, "-scratch", t.TempDir())
	if code := run(args, &stdout); code != 0 {
		t.Fatalf("bench %v: exit %d\n%s", args, code, stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var out driverOutput
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if !out.Correct {
		t.Errorf("verification failed:\n%s", stdout.String())
	}
	if out.Attempted < 1 {
		t.Errorf("attempted %d operations", out.Attempted)
	}
	return out
}

// Each workload for one second: keeps the harness compiling, running and
// verifying under plain `go test ./...`. No timing is asserted.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("boots live grids")
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			out := runBench(t, "-workload", w.Name, "-seconds", "1")
			if len(out.Metrics) != driverMetrics {
				t.Errorf("%d metrics on the result line, want the %d BENCHMARK.json binds", len(out.Metrics), driverMetrics)
			}
			for _, m := range endToEnd[:driverMetrics] {
				v, ok := out.Metrics[m.Name]
				if !ok || v.Value <= 0 || v.Unit != m.Unit {
					t.Errorf("%s = %+v (present %v), want a positive value in %s", m.Name, v, ok, m.Unit)
				}
			}
		})
	}
}

// The traced path: a second window with span recording on, the probes,
// and every per-layer metric on the result line.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a live grid")
	}
	out := runBench(t, "-workload", wTripSteady, "-seconds", "1", "-trace", "1")
	if len(out.Metrics) != len(perLayer) {
		t.Errorf("%d per-layer metrics on the result line, want %d", len(out.Metrics), len(perLayer))
	}
	for _, l := range perLayer {
		if v, ok := out.Metrics[l.Name]; !ok || v.Unit != l.Unit {
			t.Errorf("%s = %+v (present %v), want unit %s", l.Name, v, ok, l.Unit)
		}
	}
	// The layers a trip crosses must have measured something.
	for _, name := range []string{"client.place_p50_us", "daemon.run_wait_p50_ms", "daemon.bid_rtt_p50_us",
		"central.settle_wire_p50_us", "db.fsyncs_per_settle", "protocol.rpcs_per_job", "grid.trip_attributed_pct"} {
		if out.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v on trip-steady, want a measurement", name, out.Metrics[name].Value)
		}
	}
}

// BENCHMARK.json must name exactly what the bench defines.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	readJSON(t, root+"/BENCHMARK.json", &manifest)
	var bound []workloadDef
	for _, w := range workloads {
		if !w.unbound {
			bound = append(bound, w)
		}
	}
	if len(manifest.Workloads) != len(bound) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d bound in the bench", len(manifest.Workloads), len(bound))
	}
	for i, w := range bound {
		if manifest.Workloads[i].Name != w.Name || manifest.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, bench has %q: %q", i, manifest.Workloads[i], w.Name, w.Why)
		}
	}
	if len(manifest.EndToEnd) != driverMetrics {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, want %d", len(manifest.EndToEnd), driverMetrics)
	}
	for i, m := range endToEnd[:driverMetrics] {
		got := manifest.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, bench has %s %s %s", i, got, m.Name, m.Unit, m.Better)
		}
	}
	if len(manifest.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the bench", len(manifest.PerLayer), len(perLayer))
	}
	for i, l := range perLayer {
		got := manifest.PerLayer[i]
		if got.Name != l.Name || got.Unit != l.Unit || got.Better != l.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, bench has %+v", i, got, l)
		}
	}
}
