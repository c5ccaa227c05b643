package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// runCfg is one invocation's settings.
type runCfg struct {
	seed    int64
	seconds float64 // measured window
	trace   bool
	dir     string // scratch directory inside the checkout, removed at exit
	spanDir string // where traced runs write their span files
}

func (c *runCfg) window() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// writeSpans writes a traced workload's spans out, once, at its end.
func (c *runCfg) writeSpans(workload string, log *spanLog) error {
	return log.writeFile(filepath.Join(c.spanDir, "spans-"+workload+".jsonl"))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadResult is everything one workload reports.
type workloadResult struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// EndToEnd always comes from the untraced window.
	EndToEnd map[string]metric `json:"end_to_end"`
	// Samples is the sample count behind each timing family.
	Samples map[string]int `json:"samples,omitempty"`
	// PerLayer and Spans come from the traced window and the probes.
	PerLayer map[string]metric `json:"per_layer,omitempty"`
	Spans    []spanStat        `json:"spans,omitempty"`
	Checks   []check           `json:"checks"`
	Errors   map[string]int    `json:"errors,omitempty"`
}

func newResult(cfg *runCfg, workload string) *workloadResult {
	return &workloadResult{Workload: workload, Seed: cfg.seed, Seconds: cfg.seconds,
		Correct: true, EndToEnd: map[string]metric{}}
}

// setEndToEnd keeps the metrics this workload defines, with their units.
func (r *workloadResult) setEndToEnd(workload string, vals map[string]float64) {
	for _, m := range endToEnd {
		if v, ok := vals[m.Name]; ok && m.appliesTo(workload) {
			r.EndToEnd[m.Name] = metric{v, m.Unit}
		}
	}
}

func (r *workloadResult) setPerLayer(lv layerValues) {
	r.PerLayer = map[string]metric{}
	for _, l := range perLayer {
		r.PerLayer[l.Name] = metric{lv[l.Name], l.Unit}
	}
}

func (r *workloadResult) addChecks(cs ...check) {
	for _, c := range cs {
		r.Checks = append(r.Checks, c)
		if !c.OK {
			r.Correct = false
		}
	}
}

func (r *workloadResult) fail(name, detail string) { r.addChecks(check{name, false, detail}) }

// errCounts tallies error messages; the zero value is ready to use.
type errCounts map[string]int

func (e *errCounts) note(msg string) {
	if *e == nil {
		*e = errCounts{}
	}
	(*e)[msg]++
}

func (r *workloadResult) noteErrors(errs errCounts) {
	for msg, n := range errs {
		if r.Errors == nil {
			r.Errors = map[string]int{}
		}
		r.Errors[msg] += n
	}
}

// finishTraced completes a traced workload once its window-derived layer
// values are in lv: it probes the still-warm grid (lg nil = no grid),
// waits for the probes' settlements, fills the process figures, and
// writes the spans out.
func (r *workloadResult) finishTraced(cfg *runCfg, lv layerValues, lg *liveGrid, led *ledger, log *spanLog) {
	runProbes(cfg, lv, lg, led)
	snap := processSnapshot
	if lg != nil {
		lg.drain(led, 10*time.Second)
		snap = lg.snapshot
	}
	lv.fromProcess(snap())
	r.setPerLayer(lv)
	r.Spans = log.summarize()
	if err := cfg.writeSpans(r.Workload, log); err != nil {
		r.fail("span-file", err.Error())
	}
}

// result is the file -out writes: one entry per workload run.
type result struct {
	Issue      int               `json:"issue"`
	Go         string            `json:"go"`
	CPUs       int               `json:"cpus"`
	Conditions string            `json:"conditions"`
	Trace      bool              `json:"trace"`
	Workloads  []*workloadResult `json:"workloads"`
}

const conditions = "loopback TCP, no injected delay, binary codec by negotiation, no liveness polling, " +
	"first-price, WAL group window 0 with fsync on; latency is this sandbox's processor and disk time"

func newFileResult(trace bool) *result {
	return &result{Issue: 12, Go: runtime.Version(), CPUs: runtime.NumCPU(), Conditions: conditions, Trace: trace}
}

func (r *result) write(path string) error {
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

func loadResult(path string) (*result, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(blob, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func (r *result) find(workload string) *workloadResult {
	for _, w := range r.Workloads {
		if w.Workload == workload {
			return w
		}
	}
	return nil
}

// print writes every metric by name with its unit, then the checks.
func (r *workloadResult) print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s  seed=%d  window=%gs  attempted=%d failed=%d\n", r.Workload, r.Seed, r.Seconds, r.Attempted, r.Failed)
	for _, m := range endToEnd {
		if v, ok := r.EndToEnd[m.Name]; ok {
			fmt.Fprintf(w, "  %-28s %14.4f %s\n", m.Name, v.Value, v.Unit)
		}
	}
	if len(r.Samples) > 0 {
		keys := make([]string, 0, len(r.Samples))
		for k := range r.Samples {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprint(w, "  samples:")
		for _, k := range keys {
			n := r.Samples[k]
			fmt.Fprintf(w, " %s=%d (tail p%g)", k, n, supportedTail(n))
		}
		fmt.Fprintln(w)
	}
	if r.PerLayer != nil {
		fmt.Fprintln(w, "  -- per layer (traced window and probes)")
		for _, l := range perLayer {
			v := r.PerLayer[l.Name]
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", l.Name, v.Value, v.Unit)
		}
		fmt.Fprintln(w, "  -- spans: count, p50, self p50")
		for _, s := range r.Spans {
			fmt.Fprintf(w, "  %-24s %-14s %7d %10.1f us %10.1f us\n", s.Name, s.Parent, s.Count, s.P50Us, s.SelfP50Us)
		}
	}
	for msg, n := range r.Errors {
		fmt.Fprintf(w, "  error x%d: %s\n", n, msg)
	}
	for _, c := range r.Checks {
		mark := "ok  "
		if !c.OK {
			mark = "FAIL"
		}
		fmt.Fprintf(w, "  [%s] %-28s %s\n", mark, c.Name, c.Detail)
	}
}

// driverLine is the last line of standard output: the object the
// benchmark driver reads. An untraced run reports the end-to-end metrics
// BENCHMARK.json lists, a traced run the per-layer ones.
func driverLine(rs []*workloadResult, trace bool) ([]byte, error) {
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	for _, r := range rs {
		line.Correct = line.Correct && r.Correct
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		prefix := ""
		if len(rs) > 1 {
			prefix = r.Workload + "/"
		}
		if trace {
			for name, v := range r.PerLayer {
				line.Metrics[prefix+name] = v
			}
			continue
		}
		for _, m := range endToEnd[:driverMetrics] {
			line.Metrics[prefix+m.Name] = r.EndToEnd[m.Name]
		}
	}
	return json.Marshal(line)
}
