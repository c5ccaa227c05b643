package central

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"faucets/internal/accounting"
	"faucets/internal/db"
	"faucets/internal/protocol"
)

func settleReq(jobID string, price float64) protocol.SettleReq {
	return protocol.SettleReq{
		JobID: jobID, User: "alice", Server: "turing",
		App: "synth", MinPE: 2, MaxPE: 16, Price: price, CPUSeconds: price * 100,
	}
}

// TestSettleIdempotentRedelivery: the daemon outbox redelivers until
// acknowledged, so the same settlement can arrive twice (lost ack). The
// duplicate must be acknowledged without double-crediting.
func TestSettleIdempotentRedelivery(t *testing.T) {
	s := New(accounting.Dollars)
	defer s.Close()
	req := settleReq("j-dup", 5)
	if err := s.Settle(req); err != nil {
		t.Fatal(err)
	}
	// Redelivery after the ack was lost: must succeed (so the daemon
	// drains its outbox) and must not re-apply.
	if err := s.Settle(req); err != nil {
		t.Fatalf("redelivered settlement refused: %v", err)
	}
	if rev := s.DB.Revenue("turing"); rev != 5 {
		t.Fatalf("revenue=%v, want 5 (double-credited)", rev)
	}
	if s.DB.HistoryLen() != 1 {
		t.Fatalf("history=%d, want 1", s.DB.HistoryLen())
	}
}

// TestSettleIdempotentAcrossRestart: the settled-mark is WAL-backed, so
// a redelivery arriving after the Central Server restarts must still be
// recognized as a duplicate.
func TestSettleIdempotentAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	store, err := db.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := NewWithDB(accounting.Dollars, store)
	req := settleReq("j-restart", 8)
	if err := s.Settle(req); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := db.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewWithDB(accounting.Dollars, store2)
	defer s2.Close()
	defer store2.Close()
	if rev := s2.DB.Revenue("turing"); rev != 8 {
		t.Fatalf("revenue lost across restart: %v", rev)
	}
	if s2.DB.HistoryLen() != 1 {
		t.Fatalf("history lost across restart: %d", s2.DB.HistoryLen())
	}
	if err := s2.Settle(req); err != nil {
		t.Fatalf("redelivery after restart refused: %v", err)
	}
	if rev := s2.DB.Revenue("turing"); rev != 8 {
		t.Fatalf("restarted server double-credited: %v", rev)
	}
	if s2.DB.HistoryLen() != 1 {
		t.Fatalf("restarted server duplicated history: %d", s2.DB.HistoryLen())
	}
}

// TestSettleBooksEachRunOnceAcrossRestart: a settlement names its run,
// the job ID with the server that ran it and that server's admission
// number. Runs of one job ID on two servers, or admitted twice on one,
// are each booked and billed; a redelivery of any, before or after a
// restart, is not.
func TestSettleBooksEachRunOnceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	runs := []protocol.SettleReq{settleReq("x", 2), settleReq("x", 2), settleReq("x", 2)}
	runs[0].Admission, runs[1].Admission = 7, 9
	runs[2].Server, runs[2].Admission = "lemieux", 7
	for restart := range 2 {
		store, err := db.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		s := NewWithDB(accounting.Dollars, store)
		for _, req := range runs {
			if err := s.Settle(req); err != nil {
				t.Fatal(err)
			}
		}
		spend, rev, rows := s.DB.Spend("alice"), s.DB.Revenue("turing")+s.DB.Revenue("lemieux"), s.DB.HistoryLen()
		s.Close()
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		if spend != 6 || rev != 6 || rows != 3 {
			t.Fatalf("restart %d: three runs of x, delivered %d times each: alice spent %v, servers earned %v, %d rows; want 6, 6 and 3",
				restart, restart+1, spend, rev, rows)
		}
	}
}

// TestSettleAfterUpgradeDedupesOldMarks: a state directory written
// before settled marks named the run holds bare job IDs, in the snapshot
// (x) and in the WAL (y). A daemon queued their settlements before its
// own upgrade, so its redeliveries carry the server and no admission
// number: both are duplicates, acknowledged and charged nothing. A run
// with a number is a new run of the ID, booked and paid.
func TestSettleAfterUpgradeDedupesOldMarks(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "snapshot.json"), []byte(`{"settled": {"x": true}}`), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wal.jsonl"), []byte(`{"seq":1,"op":"settled","job_id":"y"}`+"\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	store, err := db.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := NewWithDB(accounting.Dollars, store)
	defer store.Close()
	defer s.Close()
	for _, id := range []string{"x", "y"} {
		if err := s.Settle(settleReq(id, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if spend, rows := s.DB.Spend("alice"), s.DB.HistoryLen(); spend != 0 || rows != 0 {
		t.Fatalf("redeliveries of old marks: alice spent %v, %d history rows; want 0 and 0", spend, rows)
	}
	rerun := settleReq("x", 2)
	rerun.Admission = 7
	if err := s.Settle(rerun); err != nil {
		t.Fatal(err)
	}
	if spend, rows := s.DB.Spend("alice"), s.DB.HistoryLen(); spend != 2 || rows != 1 {
		t.Fatalf("a numbered run of x: alice spent %v, %d history rows; want 2 and 1", spend, rows)
	}
}

// TestBarterSettlementSurvivesRestart: credit transfers are the binding
// payoff of §5.5.3 — a restart must neither forget nor repeat them.
func TestBarterSettlementSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	store, err := db.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	store.AddCredits("home", 100)
	s := NewWithDB(accounting.Barter, store)
	req := settleReq("j-barter", 40)
	req.HomeCluster = "home"
	if err := s.Settle(req); err != nil {
		t.Fatal(err)
	}
	s.Close()
	store.Close()

	store2, err := db.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewWithDB(accounting.Barter, store2)
	defer s2.Close()
	defer store2.Close()
	if got := store2.Credits("home"); got != 60 {
		t.Fatalf("home=%v, want 60", got)
	}
	if got := store2.Credits("turing"); got != 40 {
		t.Fatalf("turing=%v, want 40", got)
	}
	if err := s2.Settle(req); err != nil {
		t.Fatal(err)
	}
	if got := store2.Credits("turing"); got != 40 {
		t.Fatalf("duplicate barter transfer applied: %v", got)
	}
	if total := store2.Credits("home") + store2.Credits("turing"); total != 100 {
		t.Fatalf("credits not conserved: %v", total)
	}
}

// TestStartSnapshotsCompacts: the periodic snapshot loop folds the WAL
// into snapshot.json, and Close runs a final compaction.
func TestStartSnapshotsCompacts(t *testing.T) {
	dir := t.TempDir()
	store, err := db.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	s := NewWithDB(accounting.Dollars, store)
	_ = s.RegisterDaemon(info("turing", 64, 1024, "synth"))
	if err := s.Settle(settleReq("j-snap", 3)); err != nil {
		t.Fatal(err)
	}
	s.StartSnapshots(10 * time.Millisecond)
	snap := filepath.Join(dir, "snapshot.json")
	deadline := time.Now().Add(5 * time.Second)
	for {
		if fi, err := os.Stat(snap); err == nil && fi.Size() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("snapshot never written")
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.Close()
	// After the final compaction the WAL is empty and the snapshot alone
	// carries the state.
	if fi, err := os.Stat(filepath.Join(dir, "wal.jsonl")); err != nil || fi.Size() != 0 {
		t.Fatalf("wal after final compact: err=%v size=%v", err, fi)
	}
	store.Close()
	re, err := db.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Revenue("turing") != 3 || re.HistoryLen() != 1 {
		t.Fatalf("snapshot-only recovery: rev=%v hist=%d", re.Revenue("turing"), re.HistoryLen())
	}
}
