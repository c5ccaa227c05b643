//go:build !race

package protocol

import (
	"testing"
	"time"
)

// The race detector makes sync.Pool drop items at random, so the pins
// stand down under -race.

// TestPoolWarmPathAllocs pins what one exchange allocates once its
// connection is warm: nothing — no channel, no timer, no payload buffer
// for a blocking Call, and no closure for a Start on a record the caller
// reuses (the round is BenchmarkPoolGoFanout16's).
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

// TestFrameReaderAllocs pins BenchmarkFrameReaderNext: reading and
// decoding a reply frame reuses the reader's buffer and the reply.
func TestFrameReaderAllocs(t *testing.T) {
	if got := testing.AllocsPerRun(1000, frameReaderCase(t)); got != 0 {
		t.Errorf("FrameReader.Next + Decode: %v allocs, want 0", got)
	}
}

// TestSolicitEncodeAllocs pins BenchmarkSolicitEncodeBinary: a bid
// request encoded into a reused buffer stays within 8 allocations.
func TestSolicitEncodeAllocs(t *testing.T) {
	if got := testing.AllocsPerRun(1000, solicitEncodeCase(t)); got > 8 {
		t.Errorf("binary bid_req encode: %v allocs, want ≤ 8", got)
	}
}

// TestDecodeIntoWarmAllocs: decoding a frame into the value the last
// like frame was decoded into keeps every string, slice and contract,
// so it allocates nothing (BenchmarkDecodeInto's cases).
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
