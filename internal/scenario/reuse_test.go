package scenario

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"sync"
	"testing"

	"faucets/internal/qos"
)

var mechanisms = []string{qos.MechanismFirstPrice, qos.MechanismPostedPrice, qos.MechanismVickrey}

// loadExamples loads every shipped example scenario, in file order.
func loadExamples(tb testing.TB) []*Spec {
	tb.Helper()
	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no example scenarios found: %v", err)
	}
	var specs []*Spec
	for _, p := range paths {
		s, err := Load(p)
		if err != nil {
			tb.Fatal(err)
		}
		specs = append(specs, s)
	}
	return specs
}

func reportJSON(tb testing.TB, r *ScenarioReport) []byte {
	tb.Helper()
	blob, err := json.Marshal(r)
	if err != nil {
		tb.Fatal(err)
	}
	return blob
}

// TestRunSimReuseAcrossScenarios replays all 21 gridsim baselines (7
// scenarios × 3 mechanisms) on one working set, twice over in two
// interleaved orders — by scenario, then by mechanism with the
// scenarios reversed — so every replay runs on storage the replay of a
// different scenario, mechanism or trace length left behind. Each report
// must still equal its committed baseline byte for byte.
func TestRunSimReuseAcrossScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("replays every example scenario twice")
	}
	set, err := LoadBaselineSet("../../SCENARIO_BASELINE.json")
	if err != nil {
		t.Fatal(err)
	}
	specs := loadExamples(t)
	type run struct {
		spec *Spec
		mech string
	}
	var order []run
	for _, s := range specs {
		for _, m := range mechanisms {
			order = append(order, run{s, m})
		}
	}
	for _, m := range mechanisms {
		for i := len(specs) - 1; i >= 0; i-- {
			order = append(order, run{specs[i], m})
		}
	}
	rp := new(replay)
	for i, r := range order {
		s := *r.spec
		s.Mechanism = r.mech
		rep, err := s.runSim(rp)
		if err != nil {
			t.Fatal(err)
		}
		base := set.Lookup(rep.Scenario, "gridsim", rep.Mechanism)
		if base == nil {
			t.Fatalf("no baseline entry for %s/gridsim/%s", rep.Scenario, rep.Mechanism)
		}
		if want, got := reportJSON(t, base), reportJSON(t, rep); !bytes.Equal(want, got) {
			t.Fatalf("replay %d (%s/%s) on reused storage drifted from its baseline:\n%s\n--- vs ---\n%s",
				i, s.Name, r.mech, want, got)
		}
	}
}

// TestRunSimConcurrentSweeps: two goroutines sweeping seeds 1–20 of the
// flash crowd through RunSim at once each get exactly the reports a
// sequential sweep gets — the pool never hands one working set to two
// replays.
func TestRunSimConcurrentSweeps(t *testing.T) {
	base, err := Load("../../examples/scenarios/flash-crowd.json")
	if err != nil {
		t.Fatal(err)
	}
	const seeds = 20
	sweep := func() ([][]byte, error) {
		out := make([][]byte, seeds)
		for i := range out {
			s := *base
			s.Seed = uint64(i + 1)
			rep, err := RunSim(&s)
			if err != nil {
				return nil, err
			}
			if out[i], err = json.Marshal(rep); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	want, err := sweep()
	if err != nil {
		t.Fatal(err)
	}
	var got [2][][]byte
	var errs [2]error
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g], errs[g] = sweep()
		}()
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		for i := range want {
			if !bytes.Equal(got[g][i], want[i]) {
				t.Fatalf("goroutine %d, seed %d: concurrent report differs from the sequential one:\n%s\n--- vs ---\n%s",
					g, i+1, got[g][i], want[i])
			}
		}
	}
}

// FuzzReplayReuse replays a fuzzed sequence of (example scenario,
// mechanism, seed, duration, bidder), five bytes a replay, through
// RunSim's pool, and each report must equal the same spec replayed on
// fresh storage. Durations run from 50 to 1600 virtual seconds, so a
// replay's trace is by turns longer and shorter than the one before it.
// No example scenario bids from the grid's weather or its contract
// history, so the bidder byte may swap one in: a history left behind in
// the database would show in their bids.
func FuzzReplayReuse(f *testing.F) {
	specs := loadExamples(f)
	bidders := []string{"", "baseline", "weather", "history"}
	f.Add([]byte{0, 0, 1, 7, 0, 4, 1, 2, 31, 0, 4, 1, 2, 0, 0})
	f.Add([]byte{6, 2, 9, 31, 3, 1, 0, 9, 1, 3, 6, 2, 9, 31, 3})
	f.Add([]byte{2, 1, 42, 15, 2, 3, 2, 42, 2, 2, 5, 0, 42, 20, 3, 2, 1, 42, 15, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const op = 5
		if len(ops) > 8*op {
			ops = ops[:8*op]
		}
		for i := 0; i+op <= len(ops); i += op {
			s := *specs[int(ops[i])%len(specs)]
			s.Mechanism = mechanisms[int(ops[i+1])%len(mechanisms)]
			s.Seed = uint64(ops[i+2])
			s.Duration = 50 * float64(1+ops[i+3]%32)
			if b := bidders[int(ops[i+4])%len(bidders)]; b != "" {
				s.Topology.Bidder = b
			}
			pooled, err := RunSim(&s)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := s.runSim(new(replay))
			if err != nil {
				t.Fatal(err)
			}
			if a, b := reportJSON(t, pooled), reportJSON(t, fresh); !bytes.Equal(a, b) {
				t.Fatalf("replay %d (%s/%s/%s seed %d, %v s): pooled report differs from fresh:\n%s\n--- vs ---\n%s",
					i/op, s.Name, s.Mechanism, s.Topology.Bidder, s.Seed, s.Duration, a, b)
			}
		}
	})
}

// TestGenerateTraceReuseMatchesFresh: a trace generated into a store that
// held a longer trace, and then a shorter one, equals the trace generated
// into fresh storage — no item, contract or phase of the last trace
// shows through.
func TestGenerateTraceReuseMatchesFresh(t *testing.T) {
	var b traceStore
	for _, seed := range []uint64{11, 12, 11} {
		for _, d := range []float64{1000, 300, 1000} {
			s := richSpec(seed)
			s.Duration = d
			frac := 0.5
			s.Jobs.PhasedFraction = &frac
			reused, err := s.generateTrace(&b)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := json.Marshal(reused)
			if want := marshalTrace(t, s); !bytes.Equal(got, want) {
				t.Fatalf("seed %d, %v s: reused trace (%d bytes) differs from fresh (%d bytes)", seed, d, len(got), len(want))
			}
		}
	}
}
