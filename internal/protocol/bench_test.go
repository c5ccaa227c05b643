package protocol

import (
	"io"
	"sync"
	"testing"
	"time"
)

// Per-layer microbenchmarks for the pool and the frame reader: the cost
// of the request-for-bids fan-out below the market, where bench/'s
// auction-wide measures it end to end. CI runs them with -cpu 1,4 and
// gates their allocs/op.

// BenchmarkPoolGoFanout16 is one sixteen-way round over loopback echo
// peers: sixteen Go calls from the benchmark's goroutine, then a wait
// for all of them.
func BenchmarkPoolGoFanout16(b *testing.B) {
	f := newFanout16(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.round()
	}
	if f.failed.Load() != 0 {
		b.Fatalf("%d calls failed", f.failed.Load())
	}
}

// BenchmarkPoolCallFanout16 is the reference beside it: the same round
// as sixteen goroutines each parked in a blocking Call, the shape the
// collector had before the pool grew completions.
func BenchmarkPoolCallFanout16(b *testing.B) {
	f := newFanout16(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for j, addr := range f.addrs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				f.done(f.p.Call(addr, time.Second, TypePollReq, f.req, TypePollOK, &f.replies[j]))
			}()
		}
		wg.Wait()
	}
	if f.failed.Load() != 0 {
		b.Fatalf("%d calls failed", f.failed.Load())
	}
}

// loopReader replays one buffer forever, a whole buffer per Read.
type loopReader struct{ frame []byte }

func (l *loopReader) Read(p []byte) (int, error) { return copy(p, l.frame), nil }

// BenchmarkFrameReaderNext reads and decodes a bid reply, the frame the
// pool's read loop sees sixteen times an auction.
func BenchmarkFrameReaderNext(b *testing.B) {
	frame, err := AppendFrame(nil, CodecBinary, 9, TypePollOK, PollOK{UsedPE: 3, QueueLen: 2, Running: 1})
	if err != nil {
		b.Fatal(err)
	}
	fr := NewFrameReader(io.Reader(&loopReader{frame: frame}))
	var reply PollOK
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := fr.Next()
		if err != nil {
			b.Fatal(err)
		}
		if err := Decode(f, TypePollOK, &reply); err != nil {
			b.Fatal(err)
		}
	}
}
