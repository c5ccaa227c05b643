package db

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOpenRecoversFromWALReplay: mutations made without any snapshot
// must come back verbatim from pure WAL replay.
func TestOpenRecoversFromWALReplay(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Update(func(tx *Tx) error { putUser(tx, UserRecord{Name: "alice", HomeCluster: "turing"}); return nil }); err != nil {
		t.Fatal(err)
	}
	d.AddCredits("turing", 100)
	if err := d.Update(func(tx *Tx) error { return tx.TransferCredits("turing", "lemieux", 30) }); err != nil {
		t.Fatal(err)
	}
	d.AddQuota("alice", 50)
	for _, stage := range []func(*Tx){
		func(tx *Tx) { tx.AddRevenue("lemieux", 7) },
		func(tx *Tx) { tx.AddSpend("alice", 7) },
		func(tx *Tx) { tx.AppendContract(ContractRecord{JobID: "j1", App: "synth", Price: 7}) },
		func(tx *Tx) { tx.MarkSettled("j1", "", 0) },
	} {
		if err := d.Update(func(tx *Tx) error { stage(tx); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if u, ok := userOf(r, "alice"); !ok || u.HomeCluster != "turing" {
		t.Fatalf("user after replay: %+v %v", u, ok)
	}
	if got := r.Credits("turing"); got != 70 {
		t.Fatalf("turing credits=%v", got)
	}
	if got := r.Credits("lemieux"); got != 30 {
		t.Fatalf("lemieux credits=%v", got)
	}
	if got := r.Quota("alice"); got != 50 {
		t.Fatalf("quota=%v", got)
	}
	if got := r.Revenue("lemieux"); got != 7 {
		t.Fatalf("revenue=%v", got)
	}
	if got := r.Spend("alice"); got != 7 {
		t.Fatalf("spend=%v", got)
	}
	if r.HistoryLen() != 1 {
		t.Fatalf("history=%d", r.HistoryLen())
	}
	if !r.Settled("j1") {
		t.Fatal("settled mark lost in replay")
	}
}

// TestCompactFoldsWALIntoSnapshot: state written before and after a
// compaction both survive, and compaction truncates the log.
func TestCompactFoldsWALIntoSnapshot(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	d.AddCredits("a", 1)
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(walFile(dir)); err != nil || fi.Size() != 0 {
		t.Fatalf("wal not truncated after compact: %v size=%d", err, fi.Size())
	}
	d.AddCredits("a", 2)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Credits("a"); got != 3 {
		t.Fatalf("credits=%v, want 3 (1 from snapshot + 2 from wal)", got)
	}
}

// TestSnapshotSeqPreventsDoubleApply: a crash between snapshot write and
// WAL truncation leaves already-snapshotted records in the log; their
// sequence numbers must keep replay from applying them twice.
func TestSnapshotSeqPreventsDoubleApply(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	d.AddCredits("a", 10)
	// Simulate the torn compaction: snapshot written, WAL NOT truncated.
	walBlob, err := os.ReadFile(walFile(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walFile(dir), walBlob, 0o600); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Credits("a"); got != 10 {
		t.Fatalf("credits=%v, want 10 (stale wal record must not re-apply)", got)
	}
}

// TestTruncatedWALTailTolerated: a torn final line (crash mid-append)
// must not wedge recovery — replay stops at the corrupt line and keeps
// everything before it.
func TestTruncatedWALTailTolerated(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	d.AddCredits("a", 5)
	d.AddCredits("b", 7)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: append half of a record.
	f, err := os.OpenFile(walFile(dir), os.O_APPEND|os.O_WRONLY, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":99,"op":"add_credits","key":"c","amo`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r, err := Open(dir)
	if err != nil {
		t.Fatalf("torn tail wedged recovery: %v", err)
	}
	if r.Credits("a") != 5 || r.Credits("b") != 7 {
		t.Fatalf("pre-tear records lost: a=%v b=%v", r.Credits("a"), r.Credits("b"))
	}
	if r.Credits("c") != 0 {
		t.Fatal("torn record applied")
	}
	// Appends after recovery land on the truncated file and survive the
	// next recovery.
	r.AddCredits("d", 1)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.Credits("a") != 5 || r2.Credits("d") != 1 {
		t.Fatalf("post-tear appends lost: a=%v d=%v", r2.Credits("a"), r2.Credits("d"))
	}
}

// TestBatchAtomicOnReplay: records staged in one transaction become one
// WAL line; a transaction that never commits replays to nothing.
func TestBatchAtomicOnReplay(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	errAbort := errors.New("abort")
	if err := d.Update(func(tx *Tx) error {
		tx.AddRevenue("s", 5)
		tx.AddSpend("u", 5)
		tx.MarkSettled("j9", "", 0)
		return errAbort // no commit: as if the settle died before it
	}); !errors.Is(err, errAbort) {
		t.Fatalf("aborted transaction returned %v", err)
	}
	if d.Revenue("s") != 0 || d.Settled("j9") {
		t.Fatal("aborted transaction applied to memory")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.Revenue("s") != 0 || r.Spend("u") != 0 || r.Settled("j9") {
		t.Fatalf("uncommitted batch leaked: rev=%v spend=%v settled=%v",
			r.Revenue("s"), r.Spend("u"), r.Settled("j9"))
	}
	// A committed batch replays whole.
	r.Update(func(tx *Tx) error {
		tx.AddRevenue("s", 5)
		tx.AddSpend("u", 5)
		tx.MarkSettled("j9", "", 0)
		return nil
	})
	blob, err := os.ReadFile(walFile(dir))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(blob)), "\n")
	if len(lines) != 1 {
		t.Fatalf("batch wrote %d wal lines, want 1: %q", len(lines), blob)
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec["op"] != "batch" {
		t.Fatalf("op=%v", rec["op"])
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.Revenue("s") != 5 || r2.Spend("u") != 5 || !r2.Settled("j9") {
		t.Fatalf("committed batch lost: rev=%v spend=%v settled=%v",
			r2.Revenue("s"), r2.Spend("u"), r2.Settled("j9"))
	}
}

// TestAtomicSnapshotLeavesNoTemp: compaction cleans up its temp file and
// the snapshot parses as complete JSON.
func TestAtomicSnapshotLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.AddCredits("a", 1)
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
	blob, err := os.ReadFile(filepath.Join(dir, "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s map[string]any
	if err := json.Unmarshal(blob, &s); err != nil {
		t.Fatalf("snapshot not valid JSON: %v", err)
	}
}

// TestCompactRequiresDurable: an ephemeral database has nowhere to
// compact to.
func TestCompactRequiresDurable(t *testing.T) {
	if err := New().Compact(); err == nil {
		t.Fatal("compact on ephemeral db must error")
	}
	if New().Durable() {
		t.Fatal("ephemeral db claims durability")
	}
	if err := New().Close(); err != nil {
		t.Fatalf("close on ephemeral db: %v", err)
	}
}

// TestUnloggableTransactionAppliesNothing: a transaction whose records
// cannot be marshaled (a NaN has no JSON form) fails whole on a durable
// database — nothing applied, nothing logged, no sequence number spent.
func TestUnloggableTransactionAppliesNothing(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Update(func(tx *Tx) error {
		tx.AddCredits("a", 1)
		tx.AddCredits("b", math.NaN())
		return nil
	}); err == nil {
		t.Fatal("unloggable transaction committed")
	}
	if d.Credits("a") != 0 {
		t.Fatal("unloggable transaction applied to memory")
	}
	d.AddCredits("c", 1)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, walFile(dir)); got != `{"seq":1,"op":"add_credits","key":"c","amount":1}`+"\n" {
		t.Fatalf("WAL after a refused transaction: %q", got)
	}
}
