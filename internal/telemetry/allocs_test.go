//go:build !race

package telemetry

import (
	"fmt"
	"testing"
)

// The race detector adds allocations of its own, so the pin stands down
// under -race.

// TestTracerRecordAllocs pins the ring: once the tracer is full, a new
// job takes the oldest job's slot and its event slice, so recording
// allocates nothing.
func TestTracerRecordAllocs(t *testing.T) {
	const maxJobs = 64
	tr := NewTracer(maxJobs)
	jobs := make([]string, 4*maxJobs)
	for i := range jobs {
		jobs[i] = fmt.Sprintf("job-%d", i)
	}
	next := 0
	record := func() {
		job := jobs[next%len(jobs)]
		next++
		tr.Record(job, SpanSubmit, "")
		tr.Record(job, SpanBid, "")
		tr.Record(job, SpanContract, "")
	}
	for range jobs { // fill the ring and grow every slot's slice
		record()
	}
	if got := testing.AllocsPerRun(1000, record); got != 0 {
		t.Errorf("Record on a full ring: %v allocs per job, want 0", got)
	}
}
