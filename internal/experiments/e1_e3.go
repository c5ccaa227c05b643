package experiments

import (
	"fmt"

	"faucets/internal/gridsim"
	"faucets/internal/job"
	"faucets/internal/machine"
	"faucets/internal/qos"
	"faucets/internal/scheduler"
	"faucets/internal/workload"
)

func refSpec(name string, pe int) machine.Spec {
	return machine.Spec{Name: name, NumPE: pe, MemPerPE: 2048, CPUType: "x86", Speed: 1, CostRate: 0.01}
}

// E1InternalFragmentation reproduces the paper's §1 scenario verbatim —
// "a single parallel machine with 1000 processors… an urgent and
// important job A which needs 600 processors… the machine happens to be
// running a relatively unimportant but long job B on 500 processors" —
// and contrasts the rigid FCFS scheduler with the adaptive
// equipartitioning scheduler across reconfiguration-latency settings
// (the ablation DESIGN.md calls out).
func E1InternalFragmentation(seed uint64) *Table {
	t := &Table{
		ID:    "E1",
		Title: "internal fragmentation: urgent 600-PE job vs 500-PE incumbent on 1000 PEs",
		Claim: "adaptive scheduler shrinks B to 400 PEs and runs A at once; rigid FCFS idles 500 PEs until B finishes",
	}
	type mk func() scheduler.Scheduler
	cases := []struct {
		label   string
		mk      mk
		latency float64
	}{
		{"fcfs", func() scheduler.Scheduler { return scheduler.NewFCFS(refSpec("m", 1000), scheduler.Config{}) }, 0},
		{"equipartition latency=0s", func() scheduler.Scheduler {
			return scheduler.NewEquipartition(refSpec("m", 1000), scheduler.Config{})
		}, 0},
		{"equipartition latency=10s", func() scheduler.Scheduler {
			return scheduler.NewEquipartition(refSpec("m", 1000), scheduler.Config{ReconfigLatency: 10})
		}, 10},
		{"equipartition latency=60s", func() scheduler.Scheduler {
			return scheduler.NewEquipartition(refSpec("m", 1000), scheduler.Config{ReconfigLatency: 60})
		}, 60},
	}
	for _, c := range cases {
		s := c.mk()
		// Job B: long, adaptive within [400, 500]; one hour at 500 PEs.
		b := job.New("B", "u", &qos.Contract{App: "b", MinPE: 400, MaxPE: 500, Work: 500 * 3600}, 0)
		s.Submit(0, b)
		s.Advance(100)
		// Job A: urgent, rigid 600 PEs, one minute of work.
		a := job.New("A", "u", &qos.Contract{App: "a", MinPE: 600, MaxPE: 600, Work: 600 * 60}, 100)
		s.Submit(100, a)

		// Run forward until both jobs complete (B's completion shows the
		// reconfiguration-latency ablation: each shrink/expand stalls it).
		now := 100.0
		for (a.State() != job.Finished || b.State() != job.Finished) && now < 1e7 {
			nt, ok := s.NextCompletion(now)
			if !ok {
				break
			}
			now = nt
			s.Advance(now)
		}
		wait := a.StartTime - a.SubmitTime
		if a.StartTime < 0 {
			wait = -1
		}
		utilAfterSubmit := float64(600+400) / 1000
		if c.label == "fcfs" {
			utilAfterSubmit = 500.0 / 1000
		}
		t.Rows = append(t.Rows, Row{Label: c.label, Cols: []Col{
			V("A_wait_s", wait),
			V("A_response_s", a.ResponseTime()),
			V("B_response_s", b.ResponseTime()),
			V("util_after_submit", utilAfterSubmit),
		}})
	}
	return t
}

// E2ExternalFragmentation reproduces the paper's second §1 scenario:
// users locked to a subset of machines wait while other machines idle;
// grid-wide market access removes the fragmentation.
func E2ExternalFragmentation(seed uint64) *Table {
	t := &Table{
		ID:    "E2",
		Title: "external fragmentation: per-user cluster lock-in vs grid-wide market",
		Claim: "with market access, no machine idles while users queue elsewhere",
	}
	spec := workload.Default(seed, 120, 3)
	spec.MaxPE = 16
	spec.MinWork = 50
	spec.MaxWork = 600
	trace := mustTrace(spec)

	servers := fleet(16, nil, "s1", "s2", "s3")
	// Locked: every user only sees s1.
	access := map[string][]string{}
	for u := 0; u < 7; u++ {
		access[fmt.Sprintf("user-%d", u)] = []string{"s1"}
	}
	locked := runSim(gridsim.Config{Servers: servers, Access: access}, trace)
	open := runSim(gridsim.Config{Servers: servers}, trace)
	for label, res := range map[string]*gridsim.Result{"locked-to-one": locked, "open-market": open} {
		t.Rows = append(t.Rows, Row{Label: label, Cols: []Col{
			V("mean_resp_s", meanResp(res)),
			V("p95_resp_s", res.Metrics.S("response_time").Percentile(95)),
			V("rejected", float64(res.Rejected)),
			V("util_s1", res.Utilization["s1"]),
			V("util_s2", res.Utilization["s2"]),
			V("util_s3", res.Utilization["s3"]),
		}})
	}
	orderRows(t, []string{"locked-to-one", "open-market"})
	return t
}

// E3AdaptiveVsRigid sweeps offered load and compares rigid FCFS, EASY
// backfill and adaptive equipartitioning — the utilization/response
// claim behind §4.1 and the companion paper [15].
func E3AdaptiveVsRigid(seed uint64) *Table {
	t := &Table{
		ID:    "E3",
		Title: "scheduler comparison across offered load (single 64-PE machine)",
		Claim: "adaptive equipartition sustains higher utilization and lower response times than rigid queueing, especially near saturation",
	}
	// Interarrival gaps chosen to sweep light to heavy load on 64 PEs.
	gaps := []float64{40, 20, 10, 5}
	for _, name := range []string{"fcfs", "backfill", "equipartition"} {
		for _, gap := range gaps {
			spec := workload.Default(seed, 150, gap)
			spec.MaxPE = 64
			spec.MinWork = 100
			spec.MaxWork = 3000
			trace := mustTrace(spec)
			res := runSim(gridsim.Config{
				Servers: []gridsim.ServerConfig{{Spec: refSpec("m", 64), NewScheduler: strategy(name)}},
			}, trace)
			t.Rows = append(t.Rows, Row{
				Label: fmt.Sprintf("%s gap=%gs", name, gap),
				Cols: []Col{
					V("offered_load", trace.OfferedLoad(64)),
					V("mean_resp_s", meanResp(res)),
					V("p95_resp_s", res.Metrics.S("response_time").Percentile(95)),
					V("utilization", res.Utilization["m"]),
					V("rejected", float64(res.Rejected)),
				},
			})
		}
	}

	// Ablation: the adaptive win shrinks as the reconfiguration stall
	// (Charm++ migration cost) grows — the knob [15] measures.
	abSpec := workload.Default(seed, 150, 5)
	abSpec.MaxPE = 64
	abSpec.MinWork = 100
	abSpec.MaxWork = 3000
	abTrace := mustTrace(abSpec)
	for _, lat := range []float64{0, 15, 60, 300} {
		res := runSim(gridsim.Config{
			Servers:  []gridsim.ServerConfig{{Spec: refSpec("m", 64), NewScheduler: strategy("equipartition")}},
			SchedCfg: scheduler.Config{ReconfigLatency: lat},
		}, abTrace)
		t.Rows = append(t.Rows, Row{
			Label: fmt.Sprintf("equi ablation latency=%gs", lat),
			Cols: []Col{
				V("mean_resp_s", meanResp(res)),
				V("utilization", res.Utilization["m"]),
			},
		})
	}
	return t
}
