package scheduler

import (
	"math"
	"testing"

	"faucets/internal/job"
	"faucets/internal/qos"
)

// want is one expected event of a job: what, at which instant, from and
// to how many processors.
type want struct {
	kind     Kind
	t        float64
	from, to int
}

// checkEvents requires log's events of job id to be exactly ws, in order,
// each at its instant to within the scheduler's boundary nudge.
func checkEvents(t *testing.T, log []Event, id job.ID, ws ...want) {
	t.Helper()
	var got []Event
	for _, e := range log {
		if e.Job.ID == id {
			got = append(got, e)
		}
	}
	ok := len(got) == len(ws)
	for i := 0; ok && i < len(ws); i++ {
		g, w := got[i], ws[i]
		ok = g.Kind == w.kind && math.Abs(g.T-w.t) < 1e-6 && g.From == w.from && g.To == w.to
	}
	if !ok {
		t.Fatalf("%s's events = %+v, want %+v", id, got, ws)
	}
}

// TestEventsAcrossAPhaseBoundary is the deterministic witness of a
// phase-boundary reallocation: a job held to 2 PEs by its first phase
// (40 work, so 20 s) and allowed 16 in its second (160 work, so 10 s)
// yields, from one Advance across both the boundary and the finish, its
// start, its expand at the boundary's virtual instant and its finish —
// however late the caller is. On profit a rigid neighbour holds the
// other 14 PEs until the same instant as well.
func TestEventsAcrossAPhaseBoundary(t *testing.T) {
	for name, build := range map[string]func() Scheduler{
		"equipartition": func() Scheduler { return NewEquipartition(spec(64), Config{}) },
		"profit":        func() Scheduler { return NewProfit(spec(16), Config{}) },
	} {
		t.Run(name, func(t *testing.T) {
			s := build()
			var log []Event
			s.Record(&log)
			if name == "profit" && !s.Submit(0, mk("neighbour", 14, 14, 14*20)) {
				t.Fatal("neighbour rejected")
			}
			c := &qos.Contract{App: "mp", MinPE: 2, MaxPE: 16, Work: 200, Phases: []qos.Phase{
				{Name: "setup", Work: 40, MinPE: 2, MaxPE: 2},
				{Name: "solve", Work: 160, MinPE: 2, MaxPE: 16},
			}}
			if !s.Submit(0, job.New("mp", "u", c, 0)) {
				t.Fatal("phased job rejected")
			}
			s.Advance(35)
			checkEvents(t, log, "mp", want{Start, 0, 0, 2}, want{Expand, 20, 2, 16}, want{Finish, 30, 16, 0})
		})
	}
}

// TestProfitSizesAPhasedJobFromItsPhase: a lone job whose first phase is
// held to 2 PEs starts at 2 on profit, as on equipartition, and expands
// at the boundary — profit plans on the phase's bounds, not the
// contract's, which would start it at 16 and leave 14 idle for the phase.
func TestProfitSizesAPhasedJobFromItsPhase(t *testing.T) {
	s := NewProfit(spec(16), Config{})
	var log []Event
	s.Record(&log)
	c := &qos.Contract{App: "mp", MinPE: 2, MaxPE: 16, Work: 200, Phases: []qos.Phase{
		{Name: "setup", Work: 40, MinPE: 2, MaxPE: 2},
		{Name: "solve", Work: 160, MinPE: 2, MaxPE: 16},
	}}
	if !s.Submit(0, job.New("mp", "u", c, 0)) {
		t.Fatal("phased job rejected")
	}
	if s.UsedPEs() != 2 {
		t.Fatalf("used %d PEs in the 2-PE phase, want 2", s.UsedPEs())
	}
	s.Advance(35)
	checkEvents(t, log, "mp", want{Start, 0, 0, 2}, want{Expand, 20, 2, 16}, want{Finish, 30, 16, 0})
}

// TestStopEvents: a kill and a profit preemption each take a running
// job's processors at their own instant, as a stop; a preempted job that
// restarts from its checkpoint starts again.
func TestStopEvents(t *testing.T) {
	t.Run("kill", func(t *testing.T) {
		s := NewEquipartition(spec(16), Config{})
		var log []Event
		s.Record(&log)
		s.Submit(0, mk("a", 4, 16, 1600))
		s.Advance(10)
		if !s.Kill(10, "a") {
			t.Fatal("kill refused")
		}
		checkEvents(t, log, "a", want{Start, 0, 0, 16}, want{Stop, 10, 16, 0})
	})
	t.Run("preemption", func(t *testing.T) {
		s := NewProfit(spec(100), Config{Preempt: true, Lookahead: 1e9})
		var log []Event
		s.Record(&log)
		victim := lowValueLong("victim", 100)
		s.Submit(0, victim)
		s.Advance(50)
		if !s.Submit(50, urgentRich("urgent", 100, 50)) {
			t.Fatal("urgent rejected")
		}
		s.Advance(150) // urgent's 10 000 work on 100 PEs ends at 150
		checkEvents(t, log, "urgent", want{Start, 50, 0, 100}, want{Finish, 150, 100, 0})
		checkEvents(t, log, "victim", want{Start, 0, 0, 100}, want{Stop, 50, 100, 0}, want{Start, 150, 0, 100})
	})
}
