package db

import (
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"

	"faucets/internal/sim"
)

// TestUserCRUD: a staged user row is applied and read back; an unknown
// user has none.
func TestUserCRUD(t *testing.T) {
	d := New()
	d.Update(func(tx *Tx) error { putUser(tx, UserRecord{Name: "alice", HomeCluster: "hub"}); return nil })
	if u, ok := userOf(d, "alice"); !ok || u.HomeCluster != "hub" {
		t.Fatalf("%+v %v", u, ok)
	}
	if _, ok := userOf(d, "bob"); ok {
		t.Fatal("unknown user found")
	}
}

func TestCreditsTransferConservation(t *testing.T) {
	d := New()
	if d.Credits("a") != 0 {
		t.Fatal("unknown cluster should start at zero")
	}
	transfer := func(amount float64) error {
		return d.Update(func(tx *Tx) error { return tx.TransferCredits("a", "b", amount) })
	}
	if err := transfer(50); err != nil {
		t.Fatal(err)
	}
	if d.Credits("a") != -50 || d.Credits("b") != 50 {
		t.Fatalf("a=%v b=%v", d.Credits("a"), d.Credits("b"))
	}
	if err := transfer(-1); err == nil {
		t.Fatal("negative transfer accepted")
	}
	if d.Credits("a") != -50 || d.Credits("b") != 50 {
		t.Fatalf("refused transfer applied: a=%v b=%v", d.Credits("a"), d.Credits("b"))
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
			amount := rng.Range(0, 100)
			if d.Update(func(tx *Tx) error { return tx.TransferCredits(from, to, amount) }) != nil {
				return false
			}
		}
		var total float64
		for _, c := range clusters {
			total += d.Credits(c)
		}
		return math.Abs(total) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestContractHistory(t *testing.T) {
	d := New()
	for i := 0; i < 10; i++ {
		d.Update(func(tx *Tx) error {
			tx.AppendContract(ContractRecord{Time: float64(i), JobID: "j", MinPE: i})
			return nil
		})
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
	if err := d.Update(func(tx *Tx) error {
		putUser(tx, UserRecord{Name: "alice", HomeCluster: "hub"})
		tx.AddCredits("hub", 42)
		tx.AppendContract(ContractRecord{Time: 1, JobID: "j1", Price: 12.5, Multiplier: 1.5})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
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
	if back.Credits("hub") != 42 {
		t.Fatalf("credits=%v", back.Credits("hub"))
	}
	if h := back.RecentContracts(nil, 2); len(h) != 1 || h[0].Price != 12.5 || h[0].Multiplier != 1.5 {
		t.Fatalf("history=%+v", h)
	}
	if u, ok := userOf(back, "alice"); !ok || u.HomeCluster != "hub" {
		t.Fatalf("user: %+v %v", u, ok)
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
	d.AddCredits("c", 1)
	d.AddQuota("q", 1)
	d.Update(func(tx *Tx) error {
		tx.MarkSettled("x", "", 0)
		putUser(tx, UserRecord{Name: "u"})
		tx.AddRevenue("s", 1)
		tx.AddSpend("u", 1)
		return nil
	})
}

func TestConcurrentAccess(t *testing.T) {
	d := New()
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			id := string(rune('a' + n%26))
			d.AddCredits(id, 1)
			d.Update(func(tx *Tx) error { tx.AppendContract(ContractRecord{JobID: id}); return nil })
			d.Credits(id)
			d.RecentContracts(nil, 5)
		}(i)
	}
	wg.Wait()
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o600)
}
