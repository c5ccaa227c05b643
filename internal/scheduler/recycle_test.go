package scheduler

import (
	"fmt"
	"strconv"
	"testing"

	"faucets/internal/job"
	"faucets/internal/machine"
	"faucets/internal/qos"
)

// freshOf builds a scheduler of the named kind as the constructors built
// one before they took recycled ones: around a new cluster.
func freshOf(kind string, sp machine.Spec, cfg Config) Scheduler {
	c := (*cluster)(nil).reset(sp, cfg)
	switch kind {
	case "equipartition":
		return &Equipartition{cluster: c}
	case "fcfs":
		return &FCFS{cluster: c}
	case "backfill":
		return &FCFS{cluster: c, backfill: true}
	case "profit":
		return &Profit{cluster: c}
	}
	panic("unknown kind " + kind)
}

// clusterOf returns the cluster s is built around.
func clusterOf(s Scheduler) *cluster {
	switch s := s.(type) {
	case *Equipartition:
		return s.cluster
	case *FCFS:
		return s.cluster
	case *Profit:
		return s.cluster
	}
	panic("unknown scheduler")
}

// dirty leaves a scheduler of the named kind on numPE processors with
// jobs running and queued, a kill and a checkpoint behind it, a kept plan
// and a log attached: everything a new one must not show.
func dirty(t *testing.T, kind string, numPE int, log *[]Event) Scheduler {
	t.Helper()
	factory, err := ByName(kind)
	if err != nil {
		t.Fatal(err)
	}
	s := factory(spec(numPE), Config{ReconfigLatency: 3, Lookahead: 50, Preempt: true})
	s.Record(log)
	s.Submit(0, lowValueLong("victim", numPE))
	s.Advance(5)
	s.Submit(5, urgentRich("urgent", numPE, 5))
	for i := range 6 {
		s.Submit(6, mk(fmt.Sprintf("d%d", i), 1+i%3, numPE, 500))
	}
	s.Advance(9)
	s.Kill(9, "d1")
	s.EstimateCompletion(9, mk("probe", 2, numPE, 100).Contract) // keeps a plan
	if s.RunningCount() == 0 || s.QueueLen() == 0 || len(*log) == 0 {
		t.Fatalf("%s on %d PEs: nothing running, queued or recorded, not dirty", kind, numPE)
	}
	if p, ok := s.(*Profit); ok && p.Preemptions() == 0 {
		t.Fatalf("profit on %d PEs: no preemption, not dirty", numPE)
	}
	return s
}

// script drives s over a fixed sequence of submits, advances, estimates
// and a kill, and returns everything it answered, events and all.
func script(s Scheduler) []string {
	var log []Event
	s.Record(&log)
	var out []string
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	observe := func(now float64) {
		for _, c := range []*qos.Contract{
			{App: "synth", MinPE: 2, MaxPE: 16, Work: 300},
			{App: "synth", MinPE: 8, MaxPE: 8, Work: 80},
			{App: "synth", MinPE: 1, MaxPE: 32, Work: 900, Payoff: qos.Payoff{Soft: 200, Hard: 400, AtSoft: 50, AtHard: 20}},
		} {
			t, ok := s.EstimateCompletion(now, c)
			out = append(out, fmt.Sprintf("estimate@%s %s %v", g(now), g(t), ok))
		}
		t, ok := s.NextCompletion(now)
		out = append(out, fmt.Sprintf("next@%s %s %v used=%d queued=%d", g(now), g(t), ok, s.UsedPEs(), s.QueueLen()))
	}
	phased := &qos.Contract{App: "mp", MinPE: 2, MaxPE: 16, Work: 200, Phases: []qos.Phase{
		{Name: "setup", Work: 40, MinPE: 2, MaxPE: 2},
		{Name: "solve", Work: 160, MinPE: 2, MaxPE: 16},
	}}
	steps := []struct {
		at  float64
		act func(now float64) bool
	}{
		{0, func(now float64) bool { return s.Submit(now, mk("a", 4, 16, 400)) }},
		{0, func(now float64) bool { return s.Submit(now, mk("b", 8, 8, 200)) }},
		{2, func(now float64) bool { return s.Submit(now, job.New("c", "u", phased, now)) }},
		{3, func(now float64) bool { return s.Submit(now, mk("d", 12, 30, 2000)) }},
		{4, func(now float64) bool { return s.Submit(now, mk("e", 2, 4, 60)) }},
		{7, func(now float64) bool { return s.Kill(now, "b") }},
		{11, func(now float64) bool { return s.Submit(now, mk("f", 16, 16, 320)) }},
		{25, func(now float64) bool { return s.Kill(now, "d") }},
	}
	observe(0) // first, so a plan kept from a past life would show
	for _, st := range steps {
		s.Advance(st.at)
		out = append(out, fmt.Sprintf("act@%s %v", g(st.at), st.act(st.at)))
		observe(st.at)
	}
	for now := 30.0; now <= 600; now += 30 {
		s.Advance(now)
		observe(now)
	}
	for _, e := range log {
		out = append(out, fmt.Sprintf("event %s %s kind=%d %d->%d", g(e.T), e.Job.ID, e.Kind, e.From, e.To))
	}
	return out
}

// TestRecycledSchedulerMatchesFresh: for each kind, a scheduler its
// constructor made from a recycled dirty one — of the same machine size,
// a larger one or a smaller one, and for the rigid kinds one the other
// rigid constructor made — answers a scripted run exactly as a new one
// does: the same events, estimates and next completions. The dirty one's
// log hears nothing more, and a recycled profit scheduler counts no
// preemption of its last life.
func TestRecycledSchedulerMatchesFresh(t *testing.T) {
	cfg := Config{ReconfigLatency: 0.5, Lookahead: 600}
	kinds := []string{"equipartition", "fcfs", "backfill", "profit"}
	for _, kind := range kinds {
		want := script(freshOf(kind, spec(32), cfg))
		factory, _ := ByName(kind)
		dirtyKinds := []string{kind}
		switch kind {
		case "fcfs":
			dirtyKinds = append(dirtyKinds, "backfill")
		case "backfill":
			dirtyKinds = append(dirtyKinds, "fcfs")
		}
		for _, from := range dirtyKinds {
			for _, numPE := range []int{32, 64, 8} {
				t.Run(fmt.Sprintf("%s/from_%s_%d", kind, from, numPE), func(t *testing.T) {
					var old []Event
					var s Scheduler
					// The pool may hand back an older scheduler first, or (under
					// -race) drop a put: retry with another dirty one until the
					// constructor returns the one just recycled.
					for attempt := 0; s == nil && attempt < 50; attempt++ {
						d := dirty(t, from, numPE, &old)
						Recycle(d)
						if got := factory(spec(32), cfg); got == d {
							s = got
						}
					}
					if s == nil {
						t.Fatal("the constructor never took the scheduler just recycled")
					}
					if s.Name() != kind {
						t.Fatalf("recycled into %q, want %q", s.Name(), kind)
					}
					if p, ok := s.(*Profit); ok && p.Preemptions() != 0 {
						t.Fatalf("recycled profit counts %d preemptions, want 0", p.Preemptions())
					}
					if clusterOf(s).log != nil {
						t.Fatal("the recycled scheduler still records into the dirty one's log")
					}
					n := len(old)
					got := script(s)
					if len(old) != n {
						t.Fatalf("the dirty scheduler's log grew from %d to %d events", n, len(old))
					}
					if len(got) != len(want) {
						t.Fatalf("recycled answered %d lines, fresh %d", len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("line %d: recycled %q, fresh %q", i, got[i], want[i])
						}
					}
				})
			}
		}
	}
}
