//go:build !race

package protocol

import (
	"testing"
	"time"
)

// The race detector makes sync.Pool drop items at random, so the pin
// stands down under -race.

// TestPoolWarmPathAllocs pins what one exchange allocates once its
// connection is warm: nothing for a blocking Call — no channel, no
// timer, no payload buffer — and Go's two closures per call.
func TestPoolWarmPathAllocs(t *testing.T) {
	addr := startQuietEcho(t)
	p := &Pool{}
	defer p.Close()
	var reply PollOK
	var req any = PollReq{}
	call := func() {
		if err := p.Call(addr, time.Second, TypePollReq, req, TypePollOK, &reply); err != nil {
			t.Error(err)
		}
	}
	call()
	if got := testing.AllocsPerRun(200, call); got > 0 {
		t.Errorf("warm Pool.Call allocates %.0f times, want 0", got)
	}

	f := newFanout16(t)
	if got := testing.AllocsPerRun(100, f.round); got > 2*16 {
		t.Errorf("warm 16-way Go round allocates %.0f times, want ≤ %d", got, 2*16)
	}
	if f.failed.Load() != 0 {
		t.Fatalf("%d fan-out calls failed", f.failed.Load())
	}
}
