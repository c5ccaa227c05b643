package db

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"

	"faucets/internal/sim"
)

func TestJobCRUD(t *testing.T) {
	d := New()
	d.PutJob(JobRecord{ID: "j1", Owner: "alice", State: "pending", SubmitTime: 5})
	r, err := d.GetJob("j1")
	if err != nil || r.Owner != "alice" {
		t.Fatalf("get: %+v %v", r, err)
	}
	if err := d.UpdateJob("j1", func(j *JobRecord) { j.State = "running" }); err != nil {
		t.Fatal(err)
	}
	r, _ = d.GetJob("j1")
	if r.State != "running" {
		t.Fatalf("update lost: %+v", r)
	}
	if _, err := d.GetJob("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err=%v", err)
	}
	if err := d.UpdateJob("missing", func(*JobRecord) {}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err=%v", err)
	}
}

func TestListJobsSortedAndFiltered(t *testing.T) {
	d := New()
	d.PutJob(JobRecord{ID: "b", SubmitTime: 2, Owner: "x"})
	d.PutJob(JobRecord{ID: "a", SubmitTime: 1, Owner: "y"})
	d.PutJob(JobRecord{ID: "c", SubmitTime: 2, Owner: "x"})
	all := d.ListJobs(nil)
	if len(all) != 3 || all[0].ID != "a" || all[1].ID != "b" || all[2].ID != "c" {
		t.Fatalf("order: %v", all)
	}
	xs := d.ListJobs(func(r JobRecord) bool { return r.Owner == "x" })
	if len(xs) != 2 {
		t.Fatalf("filter: %v", xs)
	}
}

func TestUserCRUD(t *testing.T) {
	d := New()
	d.PutUser(UserRecord{Name: "alice", HomeCluster: "hub"})
	u, err := d.GetUser("alice")
	if err != nil || u.HomeCluster != "hub" {
		t.Fatalf("%+v %v", u, err)
	}
	if _, err := d.GetUser("bob"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err=%v", err)
	}
}

func TestCreditsTransferConservation(t *testing.T) {
	d := New()
	if d.Credits("a") != 0 {
		t.Fatal("unknown cluster should start at zero")
	}
	if err := d.TransferCredits("a", "b", 50); err != nil {
		t.Fatal(err)
	}
	if d.Credits("a") != -50 || d.Credits("b") != 50 {
		t.Fatalf("a=%v b=%v", d.Credits("a"), d.Credits("b"))
	}
	if d.TotalCredits() != 0 {
		t.Fatalf("total=%v, want 0", d.TotalCredits())
	}
	if err := d.TransferCredits("a", "b", -1); err == nil {
		t.Fatal("negative transfer accepted")
	}
	d.AddCredits("c", 10)
	if d.TotalCredits() != 10 {
		t.Fatalf("total=%v", d.TotalCredits())
	}
}

// Property: any sequence of transfers keeps the system sum at zero.
func TestCreditConservationProperty(t *testing.T) {
	clusters := []string{"a", "b", "c", "d"}
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		d := New()
		for i := 0; i < 100; i++ {
			from := clusters[rng.Intn(len(clusters))]
			to := clusters[rng.Intn(len(clusters))]
			if d.TransferCredits(from, to, rng.Range(0, 100)) != nil {
				return false
			}
		}
		return math.Abs(d.TotalCredits()) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestContractHistory(t *testing.T) {
	d := New()
	for i := 0; i < 10; i++ {
		d.AppendContract(ContractRecord{Time: float64(i), JobID: "j", MinPE: i})
	}
	if d.HistoryLen() != 10 {
		t.Fatalf("len=%d", d.HistoryLen())
	}
	recent := d.RecentContracts(nil, 3)
	if len(recent) != 3 || recent[0].Time != 9 || recent[2].Time != 7 {
		t.Fatalf("recent=%v", recent)
	}
	big := d.RecentContracts(func(r ContractRecord) bool { return r.MinPE >= 8 }, 10)
	if len(big) != 2 {
		t.Fatalf("filtered=%v", big)
	}
}

// TestSaveLoadRoundTrip: every table survives being folded into the
// snapshot and read back by a fresh Open (the WAL is empty after
// Compact, so the snapshot alone carries the state).
func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	d.PutJob(JobRecord{ID: "j1", Owner: "alice", Price: 12.5})
	d.PutUser(UserRecord{Name: "alice", HomeCluster: "hub"})
	d.AddCredits("hub", 42)
	d.AppendContract(ContractRecord{Time: 1, JobID: "j1", Multiplier: 1.5})
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	j, err := back.GetJob("j1")
	if err != nil || j.Price != 12.5 {
		t.Fatalf("job: %+v %v", j, err)
	}
	if back.Credits("hub") != 42 {
		t.Fatalf("credits=%v", back.Credits("hub"))
	}
	if back.HistoryLen() != 1 {
		t.Fatalf("history=%d", back.HistoryLen())
	}
	u, err := back.GetUser("alice")
	if err != nil || u.HomeCluster != "hub" {
		t.Fatalf("user: %+v %v", u, err)
	}
}

// TestLoadMissingAndCorrupt: a state dir without a snapshot opens empty;
// one whose snapshot does not parse is refused.
func TestLoadMissingAndCorrupt(t *testing.T) {
	d, err := Open(filepath.Join(t.TempDir(), "absent"))
	if err != nil {
		t.Fatalf("opening a fresh state dir: %v", err)
	}
	if n := d.HistoryLen(); n != 0 {
		t.Fatalf("fresh state dir holds %d history records", n)
	}
	d.Close()
	dir := t.TempDir()
	if err := writeFile(snapshotFile(dir), "{nope"); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
}

func TestLoadEmptyObjectInitializesMaps(t *testing.T) {
	dir := t.TempDir()
	if err := writeFile(snapshotFile(dir), "{}"); err != nil {
		t.Fatal(err)
	}
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// Must not panic on nil maps.
	d.PutJob(JobRecord{ID: "x"})
	d.AddCredits("c", 1)
	d.PutUser(UserRecord{Name: "u"})
}

func TestConcurrentAccess(t *testing.T) {
	d := New()
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			id := string(rune('a' + n%26))
			d.PutJob(JobRecord{ID: id})
			d.AddCredits(id, 1)
			d.AppendContract(ContractRecord{JobID: id})
			d.ListJobs(nil)
			d.RecentContracts(nil, 5)
			d.TotalCredits()
		}(i)
	}
	wg.Wait()
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o600)
}

// TestListJobsAllocBound pins the listing path's allocation profile: one
// pre-sized result slice plus sort.Slice's fixed overhead, independent
// of row count. A regression to append-growth or a per-row comparator
// allocation shows up as a count scaling with the table size.
func TestListJobsAllocBound(t *testing.T) {
	d := New()
	for i := 0; i < 256; i++ {
		d.PutJob(JobRecord{ID: fmt.Sprintf("j-%03d", i), SubmitTime: float64(i % 17)})
	}
	allocs := testing.AllocsPerRun(100, func() {
		if got := d.ListJobs(nil); len(got) != 256 {
			t.Fatalf("rows=%d", len(got))
		}
	})
	if allocs > 6 {
		t.Fatalf("ListJobs allocates %v times per call over 256 rows, want a small constant", allocs)
	}
}
