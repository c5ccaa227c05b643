package workload

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleSWF = `; SWF header comment
; MaxJobs: 5
# alternative comment style

1  0    10 3600  64 -1 -1  64 3600 -1 1 7  1 1 -1 -1 -1 -1
2  30   5  1800  16 -1 -1  16 1800 -1 1 3  1 1 -1 -1 -1 -1
3  60   0  -1    32 -1 -1  32 -1   -1 0 7  1 1 -1 -1 -1 -1
4  90   2  600   -1 -1 -1   8 600  -1 1 2  1 1 -1 -1 -1 -1
5  120  1  60     8 -1 -1   8 60   -1 1 9  1 1 -1 -1 -1 -1
`

func TestParseSWF(t *testing.T) {
	tr, err := ParseSWF(strings.NewReader(sampleSWF), SWFOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Jobs 3 (runtime -1) and 4 (procs -1) are skipped.
	if len(tr.Items) != 3 {
		t.Fatalf("items=%d, want 3", len(tr.Items))
	}
	j := tr.Items[0]
	if j.ID != "swf-1" || j.SubmitAt != 0 || j.User != "user-7" {
		t.Fatalf("item0=%+v", j)
	}
	if j.Contract.MinPE != 64 || j.Contract.MaxPE != 64 {
		t.Fatalf("procs: %+v", j.Contract)
	}
	if j.Contract.Work != 3600*64 {
		t.Fatalf("work=%v", j.Contract.Work)
	}
	if j.Contract.App != "swf" {
		t.Fatalf("app=%q", j.Contract.App)
	}
	if tr.Items[2].SubmitAt != 120 || tr.Items[2].User != "user-9" {
		t.Fatalf("item2=%+v", tr.Items[2])
	}
	// Every imported contract validates.
	for i, it := range tr.Items {
		if err := it.Contract.Validate(); err != nil {
			t.Fatalf("item %d invalid: %v", i, err)
		}
	}
}

func TestParseSWFMalleable(t *testing.T) {
	tr, err := ParseSWF(strings.NewReader(sampleSWF), SWFOptions{Malleable: true, App: "namd"})
	if err != nil {
		t.Fatal(err)
	}
	c := tr.Items[0].Contract
	if c.App != "namd" {
		t.Fatalf("app=%q", c.App)
	}
	if c.MinPE != 32 || c.MaxPE != 128 {
		t.Fatalf("malleable bounds [%d,%d], want [32,128]", c.MinPE, c.MaxPE)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParseSWFMaxJobs(t *testing.T) {
	tr, err := ParseSWF(strings.NewReader(sampleSWF), SWFOptions{MaxJobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Items) != 2 {
		t.Fatalf("items=%d", len(tr.Items))
	}
}

func TestParseSWFErrors(t *testing.T) {
	if _, err := ParseSWF(strings.NewReader("1 2 3\n"), SWFOptions{}); err == nil {
		t.Fatal("short line accepted")
	}
	if _, err := ParseSWF(strings.NewReader("a b c d e\n"), SWFOptions{}); err == nil {
		t.Fatal("non-numeric fields accepted")
	}
}

func TestParseSWFCommentOnly(t *testing.T) {
	const commentsOnly = `; SWF header
; Computer: Test Cluster
# trailing comment style

`
	tr, err := ParseSWF(strings.NewReader(commentsOnly), SWFOptions{})
	if err != nil {
		t.Fatalf("comment-only file rejected: %v", err)
	}
	if len(tr.Items) != 0 {
		t.Fatalf("comment-only file produced %d items", len(tr.Items))
	}
	// Empty input likewise.
	tr, err = ParseSWF(strings.NewReader(""), SWFOptions{})
	if err != nil || len(tr.Items) != 0 {
		t.Fatalf("empty file: items=%v err=%v", tr.Items, err)
	}
}

func TestParseSWFTruncatedLine(t *testing.T) {
	// A record cut off mid-line (fewer than the 5 fields this importer
	// needs) must fail loudly with the line number, not be skipped.
	truncated := "1  0  10 3600  64 -1 -1 64 3600 -1 1 7 1 1 -1 -1 -1 -1\n2  30  5 1800\n"
	_, err := ParseSWF(strings.NewReader(truncated), SWFOptions{})
	if err == nil {
		t.Fatal("truncated line accepted")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error does not name the offending line: %v", err)
	}
}

// TestParseSWFOutOfOrderSubmits: archive logs occasionally record
// submissions out of order (clock skew between front-ends); the parser
// must restore Trace's SubmitAt-sorted invariant, and MaxJobs must then
// keep the earliest-submitted jobs, not the first file lines.
func TestParseSWFOutOfOrderSubmits(t *testing.T) {
	const outOfOrder = `1  200  10 3600  4 -1 -1  4 3600 -1 1 1  1 1 -1 -1 -1 -1
2  50   10 1800  2 -1 -1  2 1800 -1 1 2  1 1 -1 -1 -1 -1
3  125  10 600   8 -1 -1  8 600  -1 1 3  1 1 -1 -1 -1 -1
`
	tr, err := ParseSWF(strings.NewReader(outOfOrder), SWFOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantOrder := []string{"swf-2", "swf-3", "swf-1"}
	for i, want := range wantOrder {
		if tr.Items[i].ID != want {
			t.Fatalf("position %d: got %s, want %s (items not re-sorted)", i, tr.Items[i].ID, want)
		}
	}
	prev := -1.0
	for i, it := range tr.Items {
		if it.SubmitAt < prev {
			t.Fatalf("item %d out of order after parse", i)
		}
		prev = it.SubmitAt
	}
	// MaxJobs keeps the two EARLIEST submissions (50, 125).
	tr, err = ParseSWF(strings.NewReader(outOfOrder), SWFOptions{MaxJobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Items) != 2 || tr.Items[0].ID != "swf-2" || tr.Items[1].ID != "swf-3" {
		t.Fatalf("MaxJobs kept %v, want the earliest-submitted two", tr.Items)
	}
}

// TestSWFRoundTripFixture: an imported SWF trace survives Save/LoadTrace
// intact — the JSON trace format is a faithful container for archive
// logs, not only for synthetic workloads.
func TestSWFRoundTripFixture(t *testing.T) {
	tr, err := ParseSWF(strings.NewReader(sampleSWF), SWFOptions{Malleable: true})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "swf-trace.json")
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Items) != len(tr.Items) {
		t.Fatalf("round trip lost items: %d -> %d", len(tr.Items), len(back.Items))
	}
	for i := range tr.Items {
		a, b := tr.Items[i], back.Items[i]
		if a.ID != b.ID || a.SubmitAt != b.SubmitAt || a.User != b.User {
			t.Fatalf("item %d metadata changed: %+v vs %+v", i, a, b)
		}
		if a.Contract.Work != b.Contract.Work ||
			a.Contract.MinPE != b.Contract.MinPE ||
			a.Contract.MaxPE != b.Contract.MaxPE ||
			a.Contract.EffMin != b.Contract.EffMin {
			t.Fatalf("item %d contract changed: %+v vs %+v", i, a.Contract, b.Contract)
		}
	}
}

func TestLoadSWF(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.swf")
	if err := os.WriteFile(path, []byte(sampleSWF), 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err := LoadSWF(path, SWFOptions{})
	if err != nil || len(tr.Items) != 3 {
		t.Fatalf("tr=%v err=%v", tr, err)
	}
	if _, err := LoadSWF(filepath.Join(t.TempDir(), "nope"), SWFOptions{}); err == nil {
		t.Fatal("missing file accepted")
	}
}
