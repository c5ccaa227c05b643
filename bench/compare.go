package main

import (
	"fmt"
	"io"
	"math"
)

// verdict is one row of the comparison: one end-to-end metric of one
// workload in the base and the candidate result.
type verdict struct {
	Workload, Metric, Unit string
	Base, Cand             float64
	Allowed                float64 // how much worse the candidate may be, in the metric's unit
	Worse                  float64 // how much worse it is (negative = better)
	Bound                  string  // the bound that set Allowed, as printed
}

func (v verdict) regressed() bool { return v.Worse > v.Allowed }

// judge compares one metric. The candidate may be worse than the base by
// the metric's relative bound or its absolute slack, whichever is larger.
func judge(m metricDef, workload string, base, cand float64) verdict {
	worse := cand - base
	if m.Better == "higher" {
		worse = base - cand
	}
	v := verdict{Workload: workload, Metric: m.Name, Unit: m.Unit, Base: base, Cand: cand, Worse: worse,
		Allowed: m.Bound * math.Abs(base), Bound: fmt.Sprintf("%.1f%%", 100*m.Bound)}
	if m.Abs > v.Allowed {
		v.Allowed, v.Bound = m.Abs, fmt.Sprintf("+%g", m.Abs)
	}
	return v
}

// compareResults judges every end-to-end metric that both results report,
// workload by workload, in the order the bench defines them.
func compareResults(base, cand *result) []verdict {
	var out []verdict
	for _, w := range workloads {
		b, c := base.find(w.Name), cand.find(w.Name)
		if b == nil || c == nil {
			continue
		}
		for _, m := range endToEnd {
			bv, okB := b.EndToEnd[m.Name]
			cv, okC := c.EndToEnd[m.Name]
			if okB && okC {
				out = append(out, judge(m, w.Name, bv.Value, cv.Value))
			}
		}
	}
	return out
}

// compareFiles prints the table for two result files and returns the exit
// code: 1 when any end-to-end metric is outside its bound or either run
// failed verification.
func compareFiles(basePath, candPath string, w io.Writer) int {
	base, err := loadResult(basePath)
	if err != nil {
		logf("%v", err)
		return 2
	}
	cand, err := loadResult(candPath)
	if err != nil {
		logf("%v", err)
		return 2
	}
	rows := compareResults(base, cand)
	if len(rows) == 0 {
		logf("the two results share no workload")
		return 2
	}
	code := 0
	fmt.Fprintf(w, "%-13s %-22s %14s %14s %8s %8s  %s\n", "workload", "metric", "base", "candidate", "ratio", "bound", "")
	for _, v := range rows {
		mark := ""
		if v.regressed() {
			mark = "REGRESSED"
			code = 1
		}
		fmt.Fprintf(w, "%-13s %-22s %14.4f %14.4f %8.3f %8s  %s %s\n",
			v.Workload, v.Metric, v.Base, v.Cand, ratio(v.Cand, v.Base), v.Bound, v.Unit, mark)
	}
	for _, r := range []*result{base, cand} {
		for _, wr := range r.Workloads {
			if !wr.Correct {
				fmt.Fprintf(w, "%s: verification failed\n", wr.Workload)
				code = 1
			}
		}
	}
	return code
}
