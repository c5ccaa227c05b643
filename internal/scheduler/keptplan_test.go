package scheduler

import (
	"fmt"
	"slices"
	"testing"

	"faucets/internal/job"
	"faucets/internal/qos"
	"faucets/internal/sim"
)

// planShare is an arrival's share as EstimateCompletion computed it
// before the kept plan: a water-fill over every running and queued job
// plus the arrival, read at the arrival's element.
func planShare(e *Equipartition, c *qos.Contract) int {
	var bs []bounds
	for _, ent := range e.running {
		bs = append(bs, jobBounds(ent.j))
	}
	for _, j := range e.queue {
		bs = append(bs, jobBounds(j))
	}
	target := shares(e.spec.NumPE, append(bs, bounds{min: c.MinPE, max: c.MaxPE}), nil)
	return target[len(target)-1]
}

// planEstimate is EstimateCompletion as it stood before the kept plan.
func planEstimate(e *Equipartition, now float64, c *qos.Contract) (float64, bool) {
	if !e.feasible(c) {
		return 0, false
	}
	pe := planShare(e, c)
	if pe == 0 {
		t, ok := e.nextCompletion(now)
		if !ok {
			return 0, false
		}
		return t + c.ExecTime(c.MinPE, e.spec.Speed), true
	}
	return now + c.ExecTime(pe, e.spec.Speed), true
}

// TestKeptPlanFollowsEveryStateChange drives one scheduler through every
// call that marks the kept plan stale — Submit, Advance across a
// completion and across a phase boundary, Evict and Kill — and after each
// step requires five random bids to read what a fresh water-fill gives.
// Each marked step moves the plan, so leaving out any one mark fails here.
func TestKeptPlanFollowsEveryStateChange(t *testing.T) {
	rng := sim.NewRNG(7)
	probes := make([]*qos.Contract, 5)
	for i := range probes {
		min := 1 + rng.Intn(8)
		probes[i] = &qos.Contract{App: "p", MinPE: min, MaxPE: min + rng.Intn(12), Work: rng.Range(100, 2000)}
	}
	s := NewEquipartition(spec(16), Config{})
	// a's second phase needs 9 PEs: past the boundary its minimum no longer
	// fits beside b's 8, b keeps them, and q — queued behind them — is
	// served by the plan but cannot start on the 4 processors left.
	a := job.New("a", "u", &qos.Contract{App: "mp", MinPE: 4, MaxPE: 10, Work: 1400, Phases: []qos.Phase{
		{Name: "narrow", Work: 400, MinPE: 4, MaxPE: 4},
		{Name: "wide", Work: 1000, MinPE: 9, MaxPE: 10},
	}}, 0)
	steps := []struct {
		name  string
		now   float64
		moves bool // the step changes some probe's share
		do    func(now float64)
	}{
		{"submit a", 0, true, func(now float64) { s.Submit(now, a) }},
		{"submit b", 0, true, func(now float64) { s.Submit(now, mk("b", 8, 8, 8000)) }},
		{"submit c", 0, true, func(now float64) { s.Submit(now, mk("c", 2, 2, 10)) }},
		{"advance past c's finish", 10, true, func(now float64) { s.Advance(now) }},
		{"submit q", 10, false, func(now float64) { s.Submit(now, mk("q", 6, 6, 600)) }},
		{"advance past a's boundary", 101, true, func(now float64) { s.Advance(now) }},
		{"evict q", 101, true, func(now float64) {
			if !s.Evict(now, "q") {
				t.Fatal("q is not waiting")
			}
		}},
		{"kill a", 102, true, func(now float64) {
			if !s.Kill(now, "a") {
				t.Fatal("a is not running")
			}
		}},
		{"advance past b's finish", 2000, true, func(now float64) { s.Advance(now) }},
	}
	last := make([]int, len(probes))
	for _, st := range steps {
		st.do(st.now)
		moved := false
		for i, c := range probes {
			got, gok := s.EstimateCompletion(st.now, c)
			want, wok := planEstimate(s, st.now, c)
			if got != want || gok != wok {
				t.Fatalf("after %s: probe %d [%d,%d] estimates %v %v, a fresh water-fill %v %v",
					st.name, i, c.MinPE, c.MaxPE, got, gok, want, wok)
			}
			share := planShare(s, c)
			moved = moved || share != last[i]
			last[i] = share
		}
		if moved != st.moves {
			t.Fatalf("after %s: shares moved %v, want %v — the drive no longer exercises this step", st.name, moved, st.moves)
		}
	}
	if s.QueueLen() != 0 || s.RunningCount() != 0 {
		t.Fatalf("%d running, %d queued at the end", s.RunningCount(), s.QueueLen())
	}
}

// FuzzKeptPlanMatchesShares: for any base — bounds read straight from the
// input, and the running and queued jobs of a scheduler driven through
// contracts with narrow and wide phases — the kept plan's share of an
// arrival is the last element of shares over the base plus the arrival.
func FuzzKeptPlanMatchesShares(f *testing.F) {
	f.Add(uint8(32), []byte{3, 9, 1, 4, 2, 200, 30, 1, 7, 7}, uint8(2), uint8(14), uint16(400))
	f.Add(uint8(16), []byte{4, 0, 8, 0, 2, 0, 6, 0, 1, 15, 0, 3}, uint8(5), uint8(0), uint16(1010))
	f.Add(uint8(64), []byte{0, 63, 0, 63, 0, 63, 0, 1, 0, 2, 0, 5}, uint8(0), uint8(63), uint16(0))
	f.Fuzz(func(t *testing.T, pe uint8, base []byte, amin, aextra uint8, at uint16) {
		total := 1 + int(pe)%64
		a := bounds{min: 1 + int(amin)%total}
		a.max = a.min + int(aextra)%total
		check := func(what string, bs []bounds, p *keptPlan) {
			want := shares(total, append(slices.Clip(bs), a), nil)
			if got := p.share(a); got != want[len(want)-1] {
				t.Fatalf("%s: base %v, arrival %v on %d PEs: kept plan gives %d, shares %d",
					what, bs, a, total, got, want[len(want)-1])
			}
		}

		var bs []bounds
		for i := 0; i+1 < len(base) && len(bs) < 64; i += 2 {
			b := bounds{min: 1 + int(base[i])%total}
			b.max = b.min + int(base[i+1])%total
			bs = append(bs, b)
		}
		var p keptPlan
		p.build(total, bs)
		check("bounds", bs, &p)

		s := NewEquipartition(spec(total), Config{})
		for i, b := range bs {
			c := &qos.Contract{App: "f", MinPE: b.min, MaxPE: b.max, Work: float64(50 + 37*i%500)}
			narrow, wide := qos.Phase{Name: "narrow", Work: c.Work / 2, MinPE: b.min, MaxPE: b.min},
				qos.Phase{Name: "wide", Work: c.Work / 2, MinPE: b.max, MaxPE: b.max}
			switch i % 3 {
			case 1:
				c.Phases = []qos.Phase{narrow, wide}
			case 2:
				c.Phases = []qos.Phase{wide, narrow}
			}
			s.Submit(0, job.New(job.ID(fmt.Sprint(i)), "u", c, 0))
		}
		s.Advance(float64(at) / 4)
		check("scheduler", slices.Clone(s.bases()), s.keep())
	})
}
