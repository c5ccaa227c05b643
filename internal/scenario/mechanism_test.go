package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"faucets/internal/qos"
)

func TestSpecMechanismValidation(t *testing.T) {
	s := richSpec(11)
	for _, ok := range []string{"", "first-price", "posted-price", "vickrey"} {
		s.Mechanism = ok
		if err := s.Validate(); err != nil {
			t.Fatalf("mechanism %q rejected: %v", ok, err)
		}
	}
	s.Mechanism = "dutch"
	if err := s.Validate(); !errors.Is(err, qos.ErrMechanism) {
		t.Fatalf("err=%v, want ErrMechanism", err)
	}
	if richSpec(11).MechanismName() != qos.MechanismFirstPrice {
		t.Fatal("empty mechanism must read back as first-price")
	}
}

// The determinism pin the CI matrix relies on, at the library level: an
// unset mechanism and an explicit first-price produce byte-identical
// gridsim reports, and every mechanism is individually deterministic.
func TestSimMechanismDeterminism(t *testing.T) {
	run := func(mech string) []byte {
		s := richSpec(11)
		s.Mechanism = mech
		rep, err := RunSim(s)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	if !bytes.Equal(run(""), run("first-price")) {
		t.Fatal("default run differs from explicit first-price run")
	}
	for _, mech := range []string{"first-price", "posted-price", "vickrey"} {
		if !bytes.Equal(run(mech), run(mech)) {
			t.Fatalf("mechanism %s is not deterministic", mech)
		}
	}
	// Distinct pricing rules must actually show up in the economics.
	var first, vick ScenarioReport
	if err := json.Unmarshal(run("first-price"), &first); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(run("vickrey"), &vick); err != nil {
		t.Fatal(err)
	}
	if first.Revenue == vick.Revenue {
		t.Fatalf("first-price and vickrey revenue identical (%v): pricing rule not applied", first.Revenue)
	}
}

func TestCompareRejectsMechanismMismatch(t *testing.T) {
	base := &ScenarioReport{Scenario: "s", Backend: "gridsim", Mechanism: "first-price"}
	cur := &ScenarioReport{Scenario: "s", Backend: "gridsim", Mechanism: "vickrey"}
	if err := Compare(base, cur, GateOpts{}); !errors.Is(err, ErrGateMismatch) {
		t.Fatalf("err=%v, want ErrGateMismatch", err)
	}
	// A legacy baseline without the field means first-price.
	legacy := &ScenarioReport{Scenario: "s", Backend: "gridsim"}
	cur.Mechanism = "first-price"
	if err := Compare(legacy, cur, GateOpts{}); err != nil {
		t.Fatalf("legacy baseline vs explicit first-price: %v", err)
	}
}

func TestBaselineSetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "base.json")

	set := &BaselineSet{}
	set.Put(&ScenarioReport{Scenario: "soak", Backend: "grid", Revenue: 42})
	if set.Lookup("soak", "grid", "vickrey") != nil {
		t.Fatal("lookup must miss for an unpinned mechanism")
	}
	set.Put(&ScenarioReport{Scenario: "soak", Backend: "gridsim", Mechanism: "vickrey", Revenue: 7})
	if err := set.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	set2, err := LoadBaselineSet(path)
	if err != nil {
		t.Fatal(err)
	}
	// An untagged report is keyed with the implied first-price tag.
	if set2.Lookup("soak", "grid", "first-price").Revenue != 42 ||
		set2.Lookup("soak", "gridsim", "vickrey").Revenue != 7 {
		t.Fatalf("round trip lost entries: %+v", set2.Reports)
	}

	// A bare ScenarioReport is not a baseline set: the error names the file.
	bare := filepath.Join(dir, "report.json")
	if err := (&ScenarioReport{Scenario: "soak", Backend: "grid"}).WriteJSON(bare); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBaselineSet(bare); err == nil || !strings.Contains(err.Error(), bare) {
		t.Fatalf("file without a reports key: err=%v, want an error naming %s", err, bare)
	}
}

// The committed SCENARIO_BASELINE.json must hold a gridsim entry for
// every shipped example scenario under every mechanism, and each must
// reproduce byte-for-byte — the same pin the CI mechanism-matrix job
// enforces.
func TestCommittedBaselineMatchesExamples(t *testing.T) {
	if testing.Short() {
		t.Skip("replays every example scenario")
	}
	set, err := LoadBaselineSet("../../SCENARIO_BASELINE.json")
	if err != nil {
		t.Fatal(err)
	}
	specs, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(specs) == 0 {
		t.Fatalf("no example scenarios found: %v", err)
	}
	for _, path := range specs {
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		t.Run(name, func(t *testing.T) {
			for _, mech := range []string{qos.MechanismFirstPrice, qos.MechanismPostedPrice, qos.MechanismVickrey} {
				t.Run(mech, func(t *testing.T) {
					s, err := Load(path)
					if err != nil {
						t.Fatal(err)
					}
					s.Mechanism = mech
					rep, err := RunSim(s)
					if err != nil {
						t.Fatal(err)
					}
					base := set.Lookup(rep.Scenario, "gridsim", rep.Mechanism)
					if base == nil {
						t.Fatalf("no baseline entry for %s/gridsim/%s", rep.Scenario, rep.Mechanism)
					}
					bb, _ := json.Marshal(base)
					rb, _ := json.Marshal(rep)
					if !bytes.Equal(bb, rb) {
						t.Fatalf("report drifted from committed baseline:\n%s\n--- vs ---\n%s", bb, rb)
					}
				})
			}
		})
	}
}

func TestFormatComparison(t *testing.T) {
	out := FormatComparison([]*ScenarioReport{
		{Mechanism: "vickrey", Placed: 5, Revenue: 10},
		{Mechanism: "first-price", Placed: 5, Revenue: 8},
	})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("table:\n%s", out)
	}
	if !strings.HasPrefix(lines[1], "first-price") || !strings.HasPrefix(lines[2], "vickrey") {
		t.Fatalf("rows not sorted by mechanism:\n%s", out)
	}
}
