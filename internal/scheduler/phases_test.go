package scheduler

import (
	"testing"

	"faucets/internal/job"
	"faucets/internal/qos"
)

// phasedJob has a wide first phase and a narrow second phase (§2.1).
func phasedJob(id string) *job.Job {
	c := &qos.Contract{
		App: "mp", MinPE: 1, MaxPE: 16, Work: 1000,
		Phases: []qos.Phase{
			{Name: "wide", Work: 800, MinPE: 4, MaxPE: 16},
			{Name: "narrow", Work: 200, MinPE: 1, MaxPE: 2},
		},
	}
	return job.New(job.ID(id), "u", c, 0)
}

// TestPhaseBoundaryTriggersReallocation reproduces §2.1's point: when a
// job shifts into a phase that cannot use its processors, the scheduler
// reallocates them to other jobs at the boundary.
func TestPhaseBoundaryTriggersReallocation(t *testing.T) {
	s := NewEquipartition(spec(16), Config{})
	mp := phasedJob("mp")
	greedy := mk("greedy", 1, 16, 1e6) // absorbs whatever frees up
	s.Submit(0, mp)
	s.Submit(0, greedy)
	initial := mp.PEs()
	if initial+greedy.PEs() != 16 || initial < 4 {
		t.Fatalf("initial split mp=%d greedy=%d", initial, greedy.PEs())
	}
	// Run until the boundary (800 work at the initial share) passes.
	boundary := 800.0 / float64(initial)
	s.Advance(boundary - 1)
	if mp.PEs() != initial {
		t.Fatalf("pre-boundary mp=%d, want %d", mp.PEs(), initial)
	}
	s.Advance(boundary + 1)
	if idx, name := mp.CurrentPhase(); idx != 1 || name != "narrow" {
		t.Fatalf("phase=%d %s", idx, name)
	}
	// The narrow phase can use at most 2 PEs; the scheduler must have
	// shrunk mp and expanded greedy at the boundary.
	if mp.PEs() > 2 {
		t.Fatalf("mp kept %d PEs in its narrow phase", mp.PEs())
	}
	if greedy.PEs() < 14 {
		t.Fatalf("greedy did not absorb freed processors: %d", greedy.PEs())
	}
	if s.UsedPEs() != 16 {
		t.Fatalf("machine not fully used after boundary: %d", s.UsedPEs())
	}
}

func TestPhasedJobCompletesUnderScheduler(t *testing.T) {
	s := NewEquipartition(spec(16), Config{})
	mp := phasedJob("solo")
	s.Submit(0, mp)
	// Solo: phase 1 at 16 PEs (50s), then narrow phase at 2 PEs (100s).
	fin := drain(s, 1e6)
	if got := fin["solo"]; got < 149.9 || got > 150.1 {
		t.Fatalf("finish=%v, want ≈150", got)
	}
}

func TestPhaseBoundsRespectedAtSubmit(t *testing.T) {
	// A job submitted while in its first phase gets that phase's bounds.
	s := NewEquipartition(spec(16), Config{})
	mp := phasedJob("mp")
	s.Submit(0, mp)
	if mp.PEs() != 16 { // wide phase allows the whole machine
		t.Fatalf("wide-phase allocation=%d", mp.PEs())
	}
}

// TestNextCompletionReportsPhaseBoundary: a boundary is reallocated only
// if Advance is called at it, so an executor that steps from one
// NextCompletion to the next (the daemon's timer, gridsim's completion
// event) must be sent to boundaries too. A job held to 2 PEs by its
// first phase and allowed 16 in its second then finishes at 30, not at
// the 100 its first allocation predicts.
func TestNextCompletionReportsPhaseBoundary(t *testing.T) {
	s := NewEquipartition(spec(64), Config{})
	c := &qos.Contract{
		App: "mp", MinPE: 2, MaxPE: 16, Work: 200,
		Phases: []qos.Phase{
			{Name: "setup", Work: 40, MinPE: 2, MaxPE: 2},
			{Name: "solve", Work: 160, MinPE: 2, MaxPE: 16},
		},
	}
	j := job.New("mp", "u", c, 0)
	s.Submit(0, j)
	if next, ok := s.NextCompletion(0); !ok || next != 20 {
		t.Fatalf("NextCompletion = %v, %v; want the phase boundary at 20", next, ok)
	}
	for now := 0.0; ; {
		next, ok := s.NextCompletion(now)
		if !ok {
			break
		}
		now = next
		s.Advance(now)
	}
	if j.State() != job.Finished || j.FinishTime < 29.9 || j.FinishTime > 30.1 {
		t.Fatalf("state %v, finished at %v; want finished at 30", j.State(), j.FinishTime)
	}
}

// TestLateAdvanceEqualsStepping: an executor's timer fires late, so one
// Advance(T) must leave the cluster exactly where stepping through every
// event up to T does — the phase boundary's reallocation happens at the
// boundary, not at T. Under equipartition mp frees processors at its
// boundary for other to absorb; under profit the boundary is where
// other's deadline gets re-planned against the clock.
func TestLateAdvanceEqualsStepping(t *testing.T) {
	type state struct {
		pes  int
		done float64
	}
	run := func(s Scheduler, late bool) (out []state) {
		mp, other := phasedJob("mp"), mk("other", 1, 16, 3000)
		other.Contract.Payoff = qos.Payoff{Soft: 400, Hard: 800, AtSoft: 100, AtHard: 10}
		if !s.Submit(0, mp) || !s.Submit(0, other) {
			t.Fatal("job refused")
		}
		boundary, ok := mp.NextPhaseBoundary()
		if end, _ := other.CompletionTime(0); !ok || end < boundary+50 {
			t.Fatalf("boundary %v (%v), other ends %v: want only the boundary before T", boundary, ok, end)
		}
		if !late {
			s.Advance(boundary)
		}
		s.Advance(boundary + 50)
		for _, j := range []*job.Job{mp, other} {
			out = append(out, state{j.PEs(), j.DoneWork()})
		}
		return out
	}
	for name, build := range map[string]func() Scheduler{
		"equipartition": func() Scheduler { return NewEquipartition(spec(16), Config{}) },
		"profit":        func() Scheduler { return NewProfit(spec(16), Config{}) },
	} {
		t.Run(name, func(t *testing.T) {
			stepped, late := run(build(), false), run(build(), true)
			for i := range stepped {
				if stepped[i] != late[i] {
					t.Fatalf("job %d: stepping through the boundary leaves %+v, one late Advance %+v", i, stepped[i], late[i])
				}
			}
		})
	}
}
