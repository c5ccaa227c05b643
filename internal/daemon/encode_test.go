package daemon

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"faucets/internal/protocol"
	"faucets/internal/qos"
)

// encodeCorpus holds the strings json.Marshal rewrites rather than
// copies: HTML characters (escaped), the JavaScript line separators
// U+2028/U+2029 (escaped) and invalid UTF-8 (replaced by U+FFFD).
var encodeCorpus = []string{
	"", "alice", "j-1", "<script>&amp;</script>", "a\u2028b\u2029c",
	"\xff\xfe\xfd", "bad\xc3(utf8", "tab\tquote\"back\\slash", "ctl\x00\x1f\x7f",
	"ünïcødé ☃ 𝄞",
}

func randomJournalRecord(rng *rand.Rand) journalRecord {
	s := func() string {
		return encodeCorpus[rng.Intn(len(encodeCorpus))] + encodeCorpus[rng.Intn(len(encodeCorpus))]
	}
	a := func() float64 {
		if rng.Intn(3) == 0 {
			return 0
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(50)-25))
	}
	switch rng.Intn(4) {
	case 0:
		c := &qos.Contract{App: s(), MinPE: rng.Intn(8), MaxPE: rng.Intn(64), Work: a(), EffMin: a(), EffMax: a(),
			Payoff: qos.Payoff{Soft: a(), Hard: a(), AtSoft: a(), AtHard: a(), Penalty: a()}, Deadline: a(), Mechanism: s()}
		for range rng.Intn(3) {
			c.Phases = append(c.Phases, qos.Phase{Name: s(), Work: a(), MinPE: 1, MaxPE: 2, EffMin: a()})
		}
		return journalRecord{Op: jopJob, JobID: s(), Owner: s(), Price: a(), Contract: c}
	case 1:
		return journalRecord{Op: jopQueue, Settle: &protocol.SettleReq{JobID: s(), User: s(), Server: s(), HomeCluster: s(),
			App: s(), MinPE: rng.Intn(8), MaxPE: rng.Intn(64), Price: a(), CPUSeconds: a()}}
	case 2:
		return journalRecord{Op: jopDone, JobID: s()}
	}
	return journalRecord{Op: jopAck, JobID: s()}
}

// TestJournalLinesMatchMarshal: whatever path encodes a journal record,
// the bytes appended are json.Marshal of it plus a newline, over random
// records of every kind; a record that cannot be encoded (a NaN price)
// writes nothing and leaves the next line clean.
func TestJournalLinesMatchMarshal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	jnl, _, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	rng := rand.New(rand.NewSource(33))
	var want []byte
	for i := 0; i < 400; i++ {
		rec := randomJournalRecord(rng)
		if i%50 == 7 {
			appendRecord(jnl, journalRecord{Op: jopJob, JobID: "nan", Price: math.NaN()})
		}
		if err := appendRecord(jnl, rec); err != nil {
			t.Fatal(err)
		}
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		want = append(append(want, line...), '\n')
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("record %d (%s): journal ends\n%q\nwant\n%q", i, rec.Op, got[len(got)-min(len(got), 400):], want[len(want)-min(len(want), 400):])
		}
	}
}
