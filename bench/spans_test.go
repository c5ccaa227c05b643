package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	parent := span{Name: "trip", Start: 100, End: 200}
	cases := []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []span{{Start: 120, End: 150}}, 70},
		{"disjoint children", []span{{Start: 100, End: 110}, {Start: 150, End: 190}}, 50},
		{"overlapping children count once", []span{{Start: 110, End: 150}, {Start: 140, End: 160}}, 50},
		{"nested child counts once", []span{{Start: 110, End: 190}, {Start: 120, End: 130}}, 20},
		{"children clipped to the parent", []span{{Start: 50, End: 120}, {Start: 180, End: 400}}, 60},
		{"child outside the parent ignored", []span{{Start: 300, End: 400}}, 100},
		{"children cover everything", []span{{Start: 100, End: 160}, {Start: 160, End: 200}}, 0},
		{"unordered children", []span{{Start: 150, End: 190}, {Start: 100, End: 110}}, 50},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSummarizeSelfTimePerJob(t *testing.T) {
	l := newSpanLog()
	at := func(us int) time.Time { return l.origin.Add(time.Duration(us) * time.Microsecond) }
	// Two jobs with the same shape: trip 0..1000 us, place 100..400 with
	// solicit 150..350 inside it, run 500..900. Spans of one job must not
	// be charged against the other's parents.
	for _, job := range []string{"a", "b"} {
		l.add(job, spanTrip, "", at(0), at(1000))
		l.add(job, spanPlace, spanTrip, at(100), at(400))
		l.add(job, spanSolicit, spanPlace, at(150), at(350))
		l.add(job, spanRunWait, spanTrip, at(500), at(900))
	}
	got := map[string]spanStat{}
	for _, s := range l.summarize() {
		got[s.Name] = s
	}
	want := map[string][2]float64{ // p50 duration, p50 self, microseconds
		spanTrip:    {1000, 300}, // minus place (300) and run wait (400); solicit is a grandchild
		spanPlace:   {300, 100},
		spanSolicit: {200, 200},
		spanRunWait: {400, 400},
	}
	for name, w := range want {
		s := got[name]
		if s.Count != 2 || s.P50Us != w[0] || s.SelfP50Us != w[1] {
			t.Errorf("%s: count %d p50 %v self %v, want 2, %v, %v", name, s.Count, s.P50Us, s.SelfP50Us, w[0], w[1])
		}
	}
	if got[spanPlace].Parent != spanTrip || got[spanTrip].Parent != "" {
		t.Errorf("parents: place under %q, trip under %q", got[spanPlace].Parent, got[spanTrip].Parent)
	}
}

func TestNilSpanLogRecordsNothing(t *testing.T) {
	var l *spanLog
	l.add("job", spanTrip, "", time.Now(), time.Now()) // an untraced run
	if s := l.summarize(); s != nil {
		t.Errorf("nil log summarized to %v", s)
	}
}

func TestSpanFileRoundTrip(t *testing.T) {
	l := newSpanLog()
	l.add("job-1", spanTrip, "", l.origin, l.origin.Add(time.Millisecond))
	l.add("job-1", spanSettle, spanTrip, l.origin.Add(500*time.Microsecond), l.origin.Add(time.Millisecond))
	path := filepath.Join(t.TempDir(), "sub", "spans.jsonl")
	if err := l.writeFile(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var back []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		back = append(back, s)
	}
	if len(back) != 2 || back[1].Parent != spanTrip || back[1].Job != "job-1" || back[1].dur() != int64(500*time.Microsecond) {
		t.Errorf("read back %+v", back)
	}
}
