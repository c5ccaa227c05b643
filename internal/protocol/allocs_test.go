//go:build !race

package protocol

import (
	"testing"
	"time"
)

// The race detector makes sync.Pool drop items at random, so the pin
// stands down under -race.

// TestPoolWarmPathAllocs pins what one exchange allocates once its
// connection is warm: nothing — no channel, no timer, no payload buffer
// for a blocking Call, and no closure for a Start on a record the caller
// reuses.
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
	if got := testing.AllocsPerRun(100, f.round); got > 0 {
		t.Errorf("warm 16-way Start round allocates %.0f times, want 0", got)
	}
	if f.failed.Load() != 0 {
		t.Fatalf("%d fan-out calls failed", f.failed.Load())
	}
}

// TestDecodeIntoWarmAllocs: decoding a frame into the value the last
// like frame was decoded into keeps every string, slice and contract,
// so it allocates nothing.
func TestDecodeIntoWarmAllocs(t *testing.T) {
	for _, tc := range decodeIntoCases() {
		fr := frameOf(t, CodecBinary, tc.typ, tc.body)
		target := zeroBody(tc.typ)
		decode := func() {
			if err := Decode(fr, tc.typ, target); err != nil {
				t.Fatal(err)
			}
		}
		decode()
		if got := testing.AllocsPerRun(100, decode); got > 0 {
			t.Errorf("%s: warm decode allocates %.0f times, want 0", tc.name, got)
		}
	}
}
