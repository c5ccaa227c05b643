package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span names. One traced trip is a root `trip` with the children below;
// the closed-loop workloads record the subtree they exercise.
const (
	spanTrip        = "trip"
	spanPlace       = "client.place"
	spanListServers = "central.list_servers"
	spanSolicit     = "market.solicit"
	spanCommit      = "market.commit"
	spanStart       = "client.start"
	spanRunWait     = "daemon.run_wait"
	spanSettle      = "settle"
	spanReplay      = "gridsim.replay"
)

// span is one timed interval at a layer boundary. Spans of one job share
// its ID; Parent names the span of the same job that caused this one
// (empty for a root). Times are nanoseconds since the run's origin.
type span struct {
	Job    string `json:"job"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// spanLog collects spans in memory for the length of a traced run and
// writes them out once, at the end.
type spanLog struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// add records one span; a nil log (an untraced run) records nothing.
func (l *spanLog) add(job, name, parent string, start, end time.Time) {
	if l == nil {
		return
	}
	s := span{Job: job, Name: name, Parent: parent,
		Start: int64(start.Sub(l.origin)), End: int64(end.Sub(l.origin))}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// selfTime is a span's duration minus the part of its interval that the
// given child spans cover. Children are clipped to the parent and
// overlapping children are counted once.
func selfTime(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, end := int64(0), parent.Start
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			covered += v.b - end
			end = v.b
		}
	}
	return parent.dur() - covered
}

// spanStat summarises every span of one name.
type spanStat struct {
	Name      string  `json:"name"`
	Parent    string  `json:"parent,omitempty"`
	Count     int     `json:"count"`
	P50Us     float64 `json:"p50_us"`
	SelfP50Us float64 `json:"self_p50_us"`
}

// summarize groups the spans by job, computes each span's self time
// against its direct children, and reports per-name medians.
func (l *spanLog) summarize() []spanStat {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	byJob := map[string][]span{}
	for _, s := range l.spans {
		byJob[s.Job] = append(byJob[s.Job], s)
	}
	type acc struct {
		parent    string
		dur, self samples
	}
	accs := map[string]*acc{}
	for _, js := range byJob {
		for _, p := range js {
			var kids []span
			for _, c := range js {
				if c.Parent == p.Name && c.Name != p.Name {
					kids = append(kids, c)
				}
			}
			a := accs[p.Name]
			if a == nil {
				a = &acc{parent: p.Parent}
				accs[p.Name] = a
			}
			a.dur.add(float64(p.dur()) / 1e3)
			a.self.add(float64(selfTime(p, kids)) / 1e3)
		}
	}
	out := make([]spanStat, 0, len(accs))
	for name, a := range accs {
		out = append(out, spanStat{Name: name, Parent: a.parent, Count: len(a.dur),
			P50Us: a.dur.pct(50), SelfP50Us: a.self.pct(50)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// writeFile writes the spans as JSON lines.
func (l *spanLog) writeFile(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("span file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span file: %w", err)
	}
	return f.Close()
}
