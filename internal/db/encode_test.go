package db

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// encodeCorpus holds the strings json.Marshal rewrites rather than
// copies: HTML characters (escaped), the JavaScript line separators
// U+2028/U+2029 (escaped) and invalid UTF-8 (replaced by U+FFFD).
var encodeCorpus = []string{
	"", "alice", "lemieux", "<script>&amp;</script>", "a\u2028b\u2029c",
	"\xff\xfe\xfd", "bad\xc3(utf8", "tab\tquote\"back\\slash", "ctl\x00\x1f\x7f",
	"ünïcødé ☃ 𝄞",
}

func randText(rng *rand.Rand) string {
	return encodeCorpus[rng.Intn(len(encodeCorpus))] + encodeCorpus[rng.Intn(len(encodeCorpus))]
}

func randAmount(rng *rand.Rand) float64 {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return float64(rng.Intn(100))
	case 2:
		return rng.NormFloat64() * 1e22 // exponent form
	case 3:
		return rng.Float64() * 1e-8
	case 4:
		return math.Copysign(0, -1)
	}
	return rng.NormFloat64() * 1000
}

// stageRandom stages one random mutation of every kind a Tx offers.
func stageRandom(rng *rand.Rand, tx *Tx) {
	s, a := func() string { return randText(rng) }, func() float64 { return randAmount(rng) }
	switch rng.Intn(8) {
	case 0:
		putUser(tx, UserRecord{Name: s(), HomeCluster: s()})
	case 1:
		tx.AddCredits(s(), a())
	case 2:
		_ = tx.TransferCredits(s(), s(), math.Abs(a()))
	case 3:
		tx.AppendContract(ContractRecord{Time: a(), JobID: s(), App: s(), Server: s(),
			MinPE: rng.Intn(64), MaxPE: rng.Intn(64), Price: a(), Multiplier: a()})
	case 4:
		tx.AddQuota(s(), a())
	case 5:
		tx.AddRevenue(s(), a())
	case 6:
		tx.AddSpend(s(), a())
	default:
		tx.MarkSettled(s(), "", 0)
	}
}

// TestWALLinesMatchMarshal: whatever path encodes a transaction's WAL
// line, the bytes appended to the file are json.Marshal of the record
// the transaction stands for — itself for one mutation, a batch for
// several — plus a newline, over random records of every operation.
func TestWALLinesMatchMarshal(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	rng := rand.New(rand.NewSource(33))
	var want []byte
	for i := 0; i < 300; i++ {
		n := 1 + rng.Intn(4)
		if err := d.Update(func(tx *Tx) error {
			for k := 0; k < n; k++ {
				stageRandom(rng, tx)
			}
			rec := walRecord{Op: opBatch, Recs: tx.recs}
			if len(tx.recs) == 1 {
				rec = tx.recs[0]
			}
			rec.Seq = d.seq + 1
			line, err := json.Marshal(rec)
			if err != nil {
				return err
			}
			want = append(append(want, line...), '\n')
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if got := readFile(t, walFile(dir)); got != string(want) {
			t.Fatalf("transaction %d (%d records): WAL ends\n%q\nwant\n%q", i, n, got[len(got)-min(len(got), 400):], want[len(want)-min(len(want), 400):])
		}
	}
}

// TestUnencodableRecordFailsTheTx: a NaN or an infinity cannot be
// written as JSON, so a transaction carrying one fails before anything
// is applied or staged — alone or inside a batch, at the top level or
// inside a row — and the next transaction's line comes out clean.
func TestUnencodableRecordFailsTheTx(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.Update(func(tx *Tx) error { tx.AddRevenue("s", 1); return nil })
	for _, c := range []struct {
		name  string
		stage func(*Tx)
	}{
		{"single", func(tx *Tx) { tx.AddSpend("u", math.NaN()) }},
		{"batch", func(tx *Tx) { tx.AddRevenue("s", 5); tx.MarkSettled("j", "", 0); tx.AddSpend("u", math.Inf(1)) }},
		{"row", func(tx *Tx) { tx.AddRevenue("s", 5); tx.AppendContract(ContractRecord{JobID: "j", Price: math.NaN()}) }},
	} {
		before, seq, last := readFile(t, walFile(dir)), d.seq, d.wal.Last()
		if err := d.Update(func(tx *Tx) error { c.stage(tx); return nil }); err == nil {
			t.Fatalf("%s: Update with an unencodable amount succeeded", c.name)
		}
		if staged := d.wal.Last() - last; staged != 0 || d.seq != seq || readFile(t, walFile(dir)) != before {
			t.Fatalf("%s: failed Tx staged %d lines, seq %d → %d", c.name, staged, seq, d.seq)
		}
		if d.Revenue("s") != 1 || d.Spend("u") != 0 || d.Settled("j") || d.HistoryLen() != 0 {
			t.Fatalf("%s: failed Tx applied: revenue %v spend %v settled %v history %d", c.name, d.Revenue("s"), d.Spend("u"), d.Settled("j"), d.HistoryLen())
		}
	}
	before := readFile(t, walFile(dir))
	d.Update(func(tx *Tx) error { tx.AddRevenue("s<&>", 2); return nil })
	line, _ := json.Marshal(walRecord{Seq: d.seq, Op: opAddRevenue, Key: "s<&>", Amount: 2})
	if got := readFile(t, walFile(dir)); got != before+string(line)+"\n" {
		t.Fatalf("line after the failures:\n%q\nwant\n%q", got[len(before):], string(line)+"\n")
	}
}
