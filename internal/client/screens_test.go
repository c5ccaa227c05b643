package client

import (
	"math/rand"
	"testing"

	"faucets/internal/accounting"
	"faucets/internal/central"
	"faucets/internal/gridsim"
	"faucets/internal/job"
	"faucets/internal/machine"
	"faucets/internal/protocol"
	"faucets/internal/qos"
	"faucets/internal/scheduler"
	"faucets/internal/workload"
)

// TestStaticScreensAgree: whether a machine could ever run a contract is
// asked in five places — the scheduler's admission, the Central Server's
// directory filter, gridsim's FilterFeasible and the two posted-price
// quotes (the client's, read off a listing, and gridsim's) — and all of
// them answer qos.FitsMachine. In particular a posted price is never
// quoted for a server whose own scheduler would refuse the job at submit:
// the posts used to judge memory at min(MaxPE, NumPE), so a job with a
// TotalMem demand that only its MaxPE satisfies was quoted, awarded and
// then bounced.
func TestStaticScreensAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	pick := func(vs ...int) int { return vs[rng.Intn(len(vs))] }
	fs := central.New(accounting.Dollars)
	defer fs.Close()
	agree, refuse := 0, 0
	for i := 0; i < 300; i++ {
		spec := machine.Spec{Name: "m", NumPE: 1 + rng.Intn(128), MemPerPE: pick(0, 256, 512, 1024), Speed: 1, CostRate: 0.01}
		c := &qos.Contract{App: "synth", MinPE: 1 + rng.Intn(96), Work: 100,
			MemPerPE: pick(0, 0, 128, 512, 2048), TotalMem: pick(0, 0, 1024, 4096, 32768)}
		c.MaxPE = c.MinPE + rng.Intn(64)
		want := c.FitsMachine(spec.NumPE, spec.MemPerPE)
		if want {
			agree++
		} else {
			refuse++
		}

		for _, name := range []string{"fcfs", "backfill", "equipartition", "profit"} {
			factory, err := scheduler.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := factory(spec, scheduler.Config{}).EstimateCompletion(0, c); ok != want {
				t.Fatalf("%s on %+v estimates %+v: %v, FitsMachine %v", name, spec, c, ok, want)
			}
			if ok := factory(spec, scheduler.Config{}).Submit(0, job.New("j", "u", c, 0)); ok != want {
				t.Fatalf("%s on %+v admits %+v: %v, FitsMachine %v", name, spec, c, ok, want)
			}
		}

		info := protocol.ServerInfo{Spec: spec, Addr: "127.0.0.1:1", Apps: []string{"synth"}}
		if err := fs.RegisterDaemon(info); err != nil {
			t.Fatal(err)
		}
		if listed := len(fs.Servers(c)) == 1; listed != want {
			t.Fatalf("directory lists %+v for %+v: %v, FitsMachine %v", spec, c, listed, want)
		}
		if _, offered := (&fdPort{info: &info}).Post(0, c); offered != want {
			t.Fatalf("client post on %+v for %+v: %v, FitsMachine %v", spec, c, offered, want)
		}

		trace := &workload.Trace{Items: []workload.Item{{ID: "j", User: "u", Contract: c}}}
		sim := gridsim.Config{Servers: []gridsim.ServerConfig{{Spec: spec}}, FilterFeasible: true}
		res, err := gridsim.Run(sim, trace)
		if err != nil {
			t.Fatal(err)
		}
		if kept := res.Metrics.C("filter.screened").Value() == 0; kept != want {
			t.Fatalf("gridsim filter keeps %+v for %+v: %v, FitsMachine %v", spec, c, kept, want)
		}
		sim.FilterFeasible, sim.Mechanism = false, qos.MechanismPostedPrice
		if res, err = gridsim.Run(sim, trace); err != nil {
			t.Fatal(err)
		}
		if refused := res.Metrics.C("commit.refused").Value(); refused != 0 {
			t.Fatalf("gridsim post quoted %+v for %+v and its scheduler refused the commit", spec, c)
		}
		if offered := res.Placed == 1; offered != want {
			t.Fatalf("gridsim post on %+v for %+v: %v, FitsMachine %v", spec, c, offered, want)
		}
	}
	if agree < 30 || refuse < 30 {
		t.Fatalf("the draw is lopsided: %d fit, %d do not", agree, refuse)
	}
}
