package accounting

import (
	"errors"
	"math"
	"sync"
	"testing"

	"faucets/internal/db"
)

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{
		Dollars: "dollars", ServiceUnits: "service-units", Barter: "barter", Mode(9): "mode(9)",
	} {
		if m.String() != want {
			t.Errorf("%d => %q", int(m), m.String())
		}
	}
}

func TestDollarsMode(t *testing.T) {
	store := db.New()
	a := New(Dollars, store)
	if !a.CanAfford("u", "", "s1", 1e9) {
		t.Fatal("dollars mode must always afford")
	}
	if err := a.Settle("j1", "u", "", "s1", 100); err != nil {
		t.Fatal(err)
	}
	if err := a.Settle("j2", "u", "", "s1", 50); err != nil {
		t.Fatal(err)
	}
	if store.Revenue("s1") != 150 {
		t.Fatalf("revenue=%v", store.Revenue("s1"))
	}
	if store.Spend("u") != 150 {
		t.Fatalf("spend=%v", store.Spend("u"))
	}
	if err := a.Settle("j3", "u", "", "s1", -5); !errors.Is(err, ErrNegative) {
		t.Fatalf("err=%v", err)
	}
}

func TestServiceUnitsQuota(t *testing.T) {
	store := db.New()
	a := New(ServiceUnits, store)
	if err := a.GrantQuota("alice", 1000); err != nil {
		t.Fatal(err)
	}
	if err := a.GrantQuota("alice", -1); !errors.Is(err, ErrNegative) {
		t.Fatalf("err=%v", err)
	}
	if !a.CanAfford("alice", "", "s", 800) {
		t.Fatal("should afford within quota")
	}
	if a.CanAfford("alice", "", "s", 1200) {
		t.Fatal("should not afford beyond quota")
	}
	// Paper's example: "I will run your job that needs 1000 SUs, but I
	// will charge 1400 SUs for it" — rejected; 750 accepted.
	if err := a.Settle("j1", "alice", "", "s", 1400); !errors.Is(err, ErrQuota) {
		t.Fatalf("err=%v", err)
	}
	if err := a.Settle("j2", "alice", "", "s", 750); err != nil {
		t.Fatal(err)
	}
	if got := store.Quota("alice"); got != 250 {
		t.Fatalf("quota=%v, want 250", got)
	}
	if store.Revenue("s") != 750 {
		t.Fatalf("revenue=%v", store.Revenue("s"))
	}
}

func TestBarterHomeClusterFree(t *testing.T) {
	store := db.New()
	a := New(Barter, store)
	// Running at home transfers nothing.
	if err := a.Settle("j1", "u", "hub", "hub", 500); err != nil {
		t.Fatal(err)
	}
	if store.Credits("hub") != 0 {
		t.Fatalf("home run moved credits: %v", store.Credits("hub"))
	}
}

func TestBarterTransfer(t *testing.T) {
	store := db.New()
	a := New(Barter, store)
	store.AddCredits("hub", 100) // hub earned credits earlier
	if !a.CanAfford("u", "hub", "remote", 80) {
		t.Fatal("hub has credits; should afford")
	}
	if err := a.Settle("j1", "u", "hub", "remote", 80); err != nil {
		t.Fatal(err)
	}
	if store.Credits("hub") != 20 || store.Credits("remote") != 80 {
		t.Fatalf("hub=%v remote=%v", store.Credits("hub"), store.Credits("remote"))
	}
	// Conservation: the initial grant is the only net injection.
	if total := store.Credits("hub") + store.Credits("remote"); math.Abs(total-100) > 1e-9 {
		t.Fatalf("total=%v", total)
	}
}

func TestBarterInsufficientCredits(t *testing.T) {
	store := db.New()
	a := New(Barter, store)
	if a.CanAfford("u", "hub", "remote", 10) {
		t.Fatal("zero balance with zero floor should not afford off-home")
	}
	if err := a.Settle("j", "u", "hub", "remote", 10); !errors.Is(err, ErrCredit) {
		t.Fatalf("err=%v", err)
	}
	// A refused settlement moves nothing.
	if store.Credits("hub") != 0 || store.Credits("remote") != 0 || store.Spend("u") != 0 {
		t.Fatalf("refused settle applied: hub=%v remote=%v spend=%v",
			store.Credits("hub"), store.Credits("remote"), store.Spend("u"))
	}
}

func TestBarterNoHomeCluster(t *testing.T) {
	a := New(Barter, db.New())
	// Users without a home cluster are not charged credits.
	if !a.CanAfford("u", "", "remote", 100) {
		t.Fatal("no-home user blocked")
	}
	if err := a.Settle("j", "u", "", "remote", 100); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentSettlement(t *testing.T) {
	store := db.New()
	a := New(Barter, store)
	store.AddCredits("hub", 1e6)
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = a.Settle("j", "u", "hub", "remote", 10)
		}()
	}
	wg.Wait()
	if got := store.Credits("hub"); got != 1e6-500 {
		t.Fatalf("hub=%v, want %v", got, 1e6-500)
	}
	if got := store.Credits("remote"); got != 500 {
		t.Fatalf("remote=%v", got)
	}
}
