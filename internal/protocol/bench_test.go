package protocol

import (
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"faucets/internal/machine"
)

// Per-layer microbenchmarks for the pool and the frame reader: the cost
// of the request-for-bids fan-out below the market, where bench/'s
// auction-wide measures it end to end. CI runs them with -cpu 1,4 and
// gates their allocs/op.

// BenchmarkPoolGoFanout16 is one sixteen-way round over loopback echo
// peers: sixteen Start calls from the benchmark's goroutine, then a wait
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

// decodeIntoCase is one hot frame a reader decodes over and over into
// the same value.
type decodeIntoCase struct {
	name, typ string
	body      any
}

func decodeIntoCases() []decodeIntoCase {
	fleet := make([]ServerInfo, 16)
	for i := range fleet {
		fleet[i] = ServerInfo{
			Spec: machine.Spec{Name: fmt.Sprintf("srv-%02d", i), NumPE: 64, MemPerPE: 1024, CPUType: "x86", Speed: 1, CostRate: 0.01},
			Addr: fmt.Sprintf("127.0.0.1:%d", 9200+i), Apps: []string{"namd", "synth"}, Home: "psc", UsedPE: i,
		}
	}
	return []decodeIntoCase{
		{"bid_req", TypeBidReq, BidReq{User: "user-00", Token: "tok-0123456789abcdef", Contract: testContract()}},
		{"list_servers_ok_16", TypeListServersOK, ListServersOK{Servers: fleet}},
	}
}

// BenchmarkDecodeInto is what a daemon pays per bid frame and a client
// per directory listing: the frame decoded into the value the last one
// was decoded into (0 allocs/op, CI gates it), and beside it — _zero —
// into a zero value, which is what every frame used to cost.
func BenchmarkDecodeInto(b *testing.B) {
	for _, tc := range decodeIntoCases() {
		fr := frameOf(b, CodecBinary, tc.typ, tc.body)
		b.Run(tc.name, func(b *testing.B) {
			target := zeroBody(tc.typ)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := Decode(fr, tc.typ, target); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tc.name+"_zero", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := Decode(fr, tc.typ, zeroBody(tc.typ)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
