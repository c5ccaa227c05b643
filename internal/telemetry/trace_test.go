package telemetry

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

func TestTracerRecordsOrderedSpans(t *testing.T) {
	tr := NewTracer(0)
	for _, name := range []string{SpanSubmit, SpanBid, SpanContract, SpanStart, SpanFinish, SpanSettle} {
		tr.Record("job-1", name, "")
	}
	var got []string
	for _, e := range tr.Events("job-1") {
		got = append(got, e.Name)
	}
	want := []string{"submit", "bid", "contract", "start", "finish", "settle"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("span chain = %v, want %v", got, want)
	}
	for i := 1; i < len(tr.Events("job-1")); i++ {
		evs := tr.Events("job-1")
		if evs[i].Wall.Before(evs[i-1].Wall) {
			t.Fatalf("timestamps not monotonic: %v", evs)
		}
	}
}

func TestTracerEviction(t *testing.T) {
	tr := NewTracer(2)
	tr.Record("a", SpanSubmit, "")
	tr.Record("b", SpanSubmit, "")
	tr.Record("c", SpanSubmit, "")
	if tr.Events("a") != nil {
		t.Fatal("oldest trace not evicted")
	}
	if got := tr.Jobs(); !reflect.DeepEqual(got, []string{"b", "c"}) {
		t.Fatalf("jobs = %v, want [b c]", got)
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.Record("j", SpanSubmit, "") // must not panic
	if tr.Events("j") != nil || tr.Jobs() != nil {
		t.Fatal("nil tracer returned data")
	}
}

// mapTracer is the tracer as it was before the ring: a map of event
// slices plus an insertion-order list that sheds its head on eviction.
// It is the model the ring is held to.
type mapTracer struct {
	jobs    map[string][]SpanEvent
	order   []string
	maxJobs int
}

func (m *mapTracer) record(job, name, detail string) {
	if _, ok := m.jobs[job]; !ok {
		if len(m.order) >= m.maxJobs {
			delete(m.jobs, m.order[0])
			m.order = m.order[1:]
		}
		m.order = append(m.order, job)
	}
	m.jobs[job] = append(m.jobs[job], SpanEvent{Job: job, Name: name, Detail: detail})
}

func (m *mapTracer) events(job string) []SpanEvent {
	if m.jobs[job] == nil {
		return nil
	}
	return append([]SpanEvent(nil), m.jobs[job]...)
}

func (m *mapTracer) list() []string { return append([]string(nil), m.order...) }

// TestTracerMatchesMapModel: random Record/Events/Jobs sequences over a
// few more jobs than fit, at every bound from 1 to 8, read the same from
// the ring as from the map-and-order tracer it replaced — eviction order,
// unknown jobs and the nil results included. A copy handed out by Events
// must not change when its job's slot is later reused.
func TestTracerMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	names := []string{SpanSubmit, SpanBid, SpanContract, SpanFinish}
	for maxJobs := 1; maxJobs <= 8; maxJobs++ {
		for seq := 0; seq < 50; seq++ {
			tr, model := NewTracer(maxJobs), &mapTracer{jobs: map[string][]SpanEvent{}, maxJobs: maxJobs}
			var held [][]SpanEvent // earlier Events results, with what they read then
			var heldWant [][]SpanEvent
			for op := 0; op < 200; op++ {
				job := fmt.Sprintf("j%d", rng.Intn(maxJobs+3))
				switch rng.Intn(4) {
				case 0, 1:
					name, detail := names[rng.Intn(len(names))], fmt.Sprint(op)
					tr.Record(job, name, detail)
					model.record(job, name, detail)
				case 2:
					got, want := tr.Events(job), model.events(job)
					if !sameEvents(got, want) {
						t.Fatalf("max %d seq %d op %d: Events(%s) = %v, want %v", maxJobs, seq, op, job, got, want)
					}
					held, heldWant = append(held, got), append(heldWant, want)
				case 3:
					if got, want := tr.Jobs(), model.list(); !reflect.DeepEqual(got, want) {
						t.Fatalf("max %d seq %d op %d: Jobs() = %v, want %v", maxJobs, seq, op, got, want)
					}
				}
			}
			for k := range held {
				if !sameEvents(held[k], heldWant[k]) {
					t.Fatalf("max %d seq %d: an Events copy changed under later records: %v, want %v", maxJobs, seq, held[k], heldWant[k])
				}
			}
		}
	}
}

// sameEvents compares traces without their wall stamps, and nil apart
// from empty.
func sameEvents(got, want []SpanEvent) bool {
	if (got == nil) != (want == nil) || len(got) != len(want) {
		return false
	}
	for i := range got {
		g := got[i]
		g.Wall = want[i].Wall
		if g != want[i] {
			return false
		}
	}
	return true
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(64)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for k := 0; k < 100; k++ {
				tr.Record("shared", SpanExpand, "")
			}
		}(i)
	}
	wg.Wait()
	if got := len(tr.Events("shared")); got != 800 {
		t.Fatalf("events = %d, want 800", got)
	}
}

// BenchmarkTraceRecord is one span appended to a warm job's trace, the
// per-lifecycle-event cost inside the daemons.
func BenchmarkTraceRecord(b *testing.B) {
	tr := NewTracer(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Record("job-bench", SpanStart, "")
	}
}
