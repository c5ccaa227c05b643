package db

import (
	"encoding/json"
	"fmt"
	"slices"
	"testing"
)

// rowsOf returns n distinct contract rows, numbered by Time and MinPE.
func rowsOf(n int) []ContractRecord {
	rows := make([]ContractRecord, n)
	for i := range rows {
		rows[i] = ContractRecord{Time: float64(i), JobID: fmt.Sprintf("job-%d", i), App: "synth",
			Server: "turing", MinPE: i, MaxPE: i + 1, Price: float64(i) / 4, Multiplier: 0.5}
	}
	return rows
}

// TestRecentContractsAcrossAPageBoundary: the newest rows come back
// newest first whether they sit in one page or straddle two, and a
// filter reaches back into the earlier page.
func TestRecentContractsAcrossAPageBoundary(t *testing.T) {
	d := New()
	for _, r := range rowsOf(historyPageRows + 10) {
		d.Update(func(tx *Tx) error { tx.AppendContract(r); return nil })
	}
	if n := d.HistoryLen(); n != historyPageRows+10 {
		t.Fatalf("HistoryLen = %d, want %d", n, historyPageRows+10)
	}
	recent := d.RecentContracts(nil, 20)
	for i, r := range recent {
		if want := historyPageRows + 9 - i; len(recent) != 20 || r.MinPE != want {
			t.Fatalf("recent[%d] = row %d of %d, want row %d of 20", i, r.MinPE, len(recent), want)
		}
	}
	old := d.RecentContracts(func(r ContractRecord) bool { return r.MinPE%historyPageRows < 3 }, 10)
	if got := []int{old[0].MinPE, old[1].MinPE, old[2].MinPE, old[3].MinPE}; len(old) != 6 ||
		!slices.Equal(got, []int{historyPageRows + 2, historyPageRows + 1, historyPageRows, 2}) {
		t.Fatalf("filtered = %+v", old)
	}
}

// TestHistoryJSONAtPageBoundaries: at 0, 1, one page and one page + 1
// rows the paged history encodes as the rows in one slice would, byte
// for byte and indented too, and decodes back to the same rows; a nil
// history (null) and an empty one ([]) stay apart both ways.
func TestHistoryJSONAtPageBoundaries(t *testing.T) {
	type doc struct {
		Seq     int              `json:"seq"`
		History []ContractRecord `json:"history"`
	}
	type paged struct {
		Seq     int     `json:"seq"`
		History history `json:"history"`
	}
	for _, n := range []int{0, 1, historyPageRows, historyPageRows + 1} {
		for _, empty := range []bool{false, true} {
			rows := rowsOf(n)
			if n == 0 && !empty {
				rows = nil
			}
			want, err := json.MarshalIndent(doc{7, rows}, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			var p paged
			if err := json.Unmarshal(want, &p); err != nil {
				t.Fatal(err)
			}
			if (p.History.pages == nil) != (rows == nil) || p.History.n != n {
				t.Fatalf("%d rows (empty=%v) decode to %d rows, nil pages %v", n, empty, p.History.n, p.History.pages == nil)
			}
			for i := range n {
				if *p.History.at(i) != rows[i] {
					t.Fatalf("%d rows: row %d decodes as %+v", n, i, *p.History.at(i))
				}
			}
			got, err := json.MarshalIndent(p, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("%d rows (empty=%v) encode as\n%.300s\nwant\n%.300s", n, empty, got, want)
			}
		}
	}
}

// TestSnapshotRoundTripAcrossAPage: one page + 1 rows, appended in one
// WAL batch, replay from the log into pages and are folded into a
// snapshot that a reopen reads back row for row and compacts to the
// same bytes again.
func TestSnapshotRoundTripAcrossAPage(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rows := rowsOf(historyPageRows + 1)
	if err := d.Update(func(tx *Tx) error {
		for _, r := range rows {
			tx.AppendContract(r)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	d.Close()
	d, err = Open(dir) // the batch replays from the WAL
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	snap := readFile(t, snapshotFile(dir))
	d.Close()
	d, err = Open(dir) // and now from the snapshot
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	got := d.RecentContracts(nil, len(rows)+1)
	slices.Reverse(got)
	if !slices.Equal(got, rows) {
		t.Fatalf("reopened history holds %d rows, want the %d written", len(got), len(rows))
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if again := readFile(t, snapshotFile(dir)); again != snap {
		t.Fatal("a reopened snapshot compacts to other bytes")
	}
}

// TestResetKeepsPages: Reset empties the history but keeps its pages, so
// the next replay's rows land in them and nothing of the last one shows.
func TestResetKeepsPages(t *testing.T) {
	d := New()
	for _, r := range rowsOf(historyPageRows + 1) {
		d.Update(func(tx *Tx) error { tx.AppendContract(r); return nil })
	}
	pages := slices.Clone(d.data.History.pages)
	d.Reset()
	if d.HistoryLen() != 0 || len(d.RecentContracts(nil, 1)) != 0 {
		t.Fatalf("after Reset: %d rows", d.HistoryLen())
	}
	if *d.data.History.at(historyPageRows) != (ContractRecord{}) {
		t.Fatal("Reset left a row's strings behind")
	}
	for _, r := range rowsOf(historyPageRows + 1) {
		d.Update(func(tx *Tx) error { tx.AppendContract(r); return nil })
	}
	if !slices.Equal(d.data.History.pages, pages) {
		t.Fatal("the rows after Reset went to new pages")
	}
}
