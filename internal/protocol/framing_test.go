package protocol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"faucets/internal/bidding"
	"faucets/internal/qos"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	req := AuthReq{User: "alice", Password: "secret"}
	if err := WriteFrame(&buf, TypeAuthReq, req); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var got AuthReq
	if err := Decode(f, TypeAuthReq, &got); err != nil {
		t.Fatal(err)
	}
	if got != req {
		t.Fatalf("round trip: %+v != %+v", got, req)
	}
}

func TestFrameNilBody(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, TypePollReq, nil); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != TypePollReq {
		t.Fatalf("type=%q", f.Type)
	}
	if err := Decode(f, TypePollReq, nil); err != nil {
		t.Fatal(err)
	}
	var body PollReq
	if err := Decode(f, TypePollReq, &body); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeWrongType(t *testing.T) {
	f := Frame{Type: TypeAuthOK}
	var v AuthReq
	if err := Decode(f, TypeAuthReq, &v); !errors.Is(err, ErrBadType) {
		t.Fatalf("err=%v", err)
	}
}

func TestReadFrameEOF(t *testing.T) {
	if _, err := ReadFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty read err=%v, want io.EOF", err)
	}
	// Truncated header.
	if _, err := ReadFrame(bytes.NewReader([]byte{0, 0})); err == nil {
		t.Fatal("truncated header accepted")
	}
	// Truncated payload.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 100)
	if _, err := ReadFrame(bytes.NewReader(hdr[:])); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

func TestReadFrameOversized(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	if _, err := ReadFrame(bytes.NewReader(hdr[:])); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("err=%v", err)
	}
}

func TestReadFrameGarbage(t *testing.T) {
	payload := []byte("{not json")
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	buf.Write(hdr[:])
	buf.Write(payload)
	if _, err := ReadFrame(&buf); err == nil {
		t.Fatal("garbage payload accepted")
	}
}

func TestMultipleFramesSequential(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 5; i++ {
		if err := WriteFrame(&buf, TypeTelemetry, Telemetry{JobID: "j", Time: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		f, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		var tm Telemetry
		if err := Decode(f, TypeTelemetry, &tm); err != nil {
			t.Fatal(err)
		}
		if tm.Time != float64(i) {
			t.Fatalf("frame %d out of order: %v", i, tm.Time)
		}
	}
}

// cannedPeer is an in-memory far end for Call: each request written to
// it is parsed and kept, and one canned reply stamped with that
// request's ID is queued for the caller to read.
type cannedPeer struct {
	replyType string
	replyBody any
	reqs      []Frame
	resps     bytes.Buffer
}

func (p *cannedPeer) Read(b []byte) (int, error) { return p.resps.Read(b) }

func (p *cannedPeer) Write(b []byte) (int, error) {
	f, err := ReadFrame(bytes.NewReader(b)) // frames leave as one Write
	if err != nil {
		return 0, err
	}
	p.reqs = append(p.reqs, f)
	return len(b), writeFrame(&p.resps, f.ID, p.replyType, p.replyBody)
}

func TestCallRoundTrip(t *testing.T) {
	peer := &cannedPeer{replyType: TypeAuthOK, replyBody: AuthOK{Token: "tok"}}
	var reply AuthOK
	err := Call(peer, TypeAuthReq, AuthReq{User: "u"}, TypeAuthOK, &reply)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Token != "tok" {
		t.Fatalf("reply=%+v", reply)
	}
	// The request must have been written.
	if len(peer.reqs) != 1 || peer.reqs[0].Type != TypeAuthReq {
		t.Fatalf("request frames: %+v", peer.reqs)
	}
}

func TestCallRemoteError(t *testing.T) {
	peer := &cannedPeer{replyType: TypeError, replyBody: ErrorBody{Message: "bad credentials"}}
	var reply AuthOK
	err := Call(peer, TypeAuthReq, AuthReq{}, TypeAuthOK, &reply)
	if err == nil || !strings.Contains(err.Error(), "bad credentials") {
		t.Fatalf("err=%v", err)
	}
}

func TestCallUnexpectedReplyType(t *testing.T) {
	peer := &cannedPeer{replyType: TypePollOK, replyBody: PollOK{}}
	var reply AuthOK
	err := Call(peer, TypeAuthReq, AuthReq{}, TypeAuthOK, &reply)
	if !errors.Is(err, ErrBadType) {
		t.Fatalf("err=%v", err)
	}
}

// Property: any telemetry message survives a frame round trip intact.
func TestTelemetryRoundTripProperty(t *testing.T) {
	f := func(id string, tm float64, pes int, out string) bool {
		in := Telemetry{JobID: id, Time: tm, PEs: pes, Output: out}
		var buf bytes.Buffer
		if WriteFrame(&buf, TypeTelemetry, in) != nil {
			return false
		}
		fr, err := ReadFrame(&buf)
		if err != nil {
			return false
		}
		var got Telemetry
		if Decode(fr, TypeTelemetry, &got) != nil {
			return false
		}
		return got == in
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestContractInBidReqRoundTrip(t *testing.T) {
	c := &qos.Contract{App: "namd", MinPE: 4, MaxPE: 64, Work: 3600,
		EffMin: 0.9, EffMax: 0.7,
		Payoff: qos.Payoff{Soft: 10, Hard: 20, AtSoft: 5, AtHard: 1, Penalty: 2}}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, TypeBidReq, BidReq{User: "u", Contract: c}); err != nil {
		t.Fatal(err)
	}
	fr, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var got BidReq
	if err := Decode(fr, TypeBidReq, &got); err != nil {
		t.Fatal(err)
	}
	if got.Contract.App != "namd" || got.Contract.Payoff != c.Payoff {
		t.Fatalf("contract mangled: %+v", got.Contract)
	}
}

func TestUploadBinaryData(t *testing.T) {
	data := make([]byte, 1024)
	for i := range data {
		data[i] = byte(i % 251)
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, TypeUploadReq, UploadReq{JobID: "j", Name: "in.dat", Data: data, Last: true}); err != nil {
		t.Fatal(err)
	}
	fr, _ := ReadFrame(&buf)
	var got UploadReq
	if err := Decode(fr, TypeUploadReq, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, data) {
		t.Fatal("binary payload corrupted")
	}
}

func TestWriteFrameTooBig(t *testing.T) {
	big := UploadReq{Data: make([]byte, MaxFrame)}
	err := WriteFrame(io.Discard, TypeUploadReq, big)
	if !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("err=%v", err)
	}
}

// chunkReader delivers a scripted sequence of chunks, at most one per
// Read, and counts the Reads — a socket whose segments arrive one by one.
type chunkReader struct {
	chunks [][]byte
	reads  int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	c.reads++
	if len(c.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.chunks[0])
	if c.chunks[0] = c.chunks[0][n:]; len(c.chunks[0]) == 0 {
		c.chunks = c.chunks[1:]
	}
	return n, nil
}

func verifyFrame(t *testing.T, id uint64) []byte {
	t.Helper()
	b, err := AppendFrame(nil, CodecBinary, id, TypeVerifyReq, VerifyReq{User: "u", Token: "tok"})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFrameReaderOneReadPerFrame: header and payload come out of the
// same Read, so a frame that arrives whole costs one Read, not two, and
// a clean end of stream is still a bare io.EOF.
func TestFrameReaderOneReadPerFrame(t *testing.T) {
	src := &chunkReader{}
	const frames = 5
	for i := 1; i <= frames; i++ {
		src.chunks = append(src.chunks, verifyFrame(t, uint64(i)))
	}
	fr := NewFrameReader(src)
	for i := 1; i <= frames; i++ {
		f, err := fr.Next()
		if err != nil || f.ID != uint64(i) {
			t.Fatalf("frame %d: id=%d err=%v", i, f.ID, err)
		}
		if src.reads != i {
			t.Fatalf("%d Reads for %d whole frames, want one each", src.reads, i)
		}
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("end of stream: err=%v, want bare io.EOF", err)
	}
}

// TestFrameReaderSplitAndCoalescedFrames: segment boundaries are not
// frame boundaries — a header split in two, a payload finishing in the
// same segment as the next whole frame and the head of a third, and a
// stream cut mid-frame all read correctly.
func TestFrameReaderSplitAndCoalescedFrames(t *testing.T) {
	a, b, c := verifyFrame(t, 1), verifyFrame(t, 2), verifyFrame(t, 3)
	src := &chunkReader{chunks: [][]byte{
		a[:2],
		a[2:9],
		append(append(append([]byte{}, a[9:]...), b...), c[:6]...),
		c[6 : len(c)-3], // the stream ends three bytes short
	}}
	fr := NewFrameReader(src)
	for want := uint64(1); want <= 2; want++ {
		f, err := fr.Next()
		if err != nil || f.ID != want {
			t.Fatalf("frame %d: id=%d err=%v", want, f.ID, err)
		}
		var m VerifyReq
		if err := Decode(f, TypeVerifyReq, &m); err != nil || m.Token != "tok" {
			t.Fatalf("frame %d: body %+v err=%v", want, m, err)
		}
	}
	if _, err := fr.Next(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated frame: err=%v, want unexpected EOF", err)
	}
}

// TestFrameReaderStagingFrame: a frame at the MaxFrame ceiling, arriving
// in socket-sized pieces, reads intact; the small frame behind it is not
// lost, and once traffic is small again the megabytes are let go.
func TestFrameReaderStagingFrame(t *testing.T) {
	empty, err := AppendFrame(nil, CodecBinary, 1, TypeUploadReq, UploadReq{JobID: "j", Name: "in.dat"})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, (MaxFrame-(len(empty)-4))/4*3) // base64 grows 3 bytes to 4
	for i := range data {
		data[i] = byte(i % 251)
	}
	big, err := AppendFrame(nil, CodecBinary, 1, TypeUploadReq, UploadReq{JobID: "j", Name: "in.dat", Data: data})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(big) - 4; n > MaxFrame || n < MaxFrame-8 {
		t.Fatalf("staging frame is %d bytes, want just under MaxFrame (%d)", n, MaxFrame)
	}
	src := &chunkReader{}
	stream := append(big, verifyFrame(t, 2)...)
	for len(stream) > 0 {
		n := min(len(stream), 64<<10)
		src.chunks = append(src.chunks, stream[:n])
		stream = stream[n:]
	}
	fr := NewFrameReader(src)
	f, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	var got UploadReq
	if err := Decode(f, TypeUploadReq, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, data) {
		t.Fatal("staging payload corrupted")
	}
	if f, err = fr.Next(); err != nil || f.ID != 2 {
		t.Fatalf("frame behind the staging frame: id=%d err=%v", f.ID, err)
	}
	if len(fr.buf) > maxPooledBuf {
		t.Fatalf("reader still pins %d bytes after a small frame", len(fr.buf))
	}
}

// TestWeatherAndHistoryBodies pins the weather_ok and history_ok frames
// byte for byte: WeatherOK is weather.Report's fields and HistoryOK's
// records are the history bidder's own type, each with its json tags.
func TestWeatherAndHistoryBodies(t *testing.T) {
	for _, c := range []struct {
		typ  string
		body any
		want string
	}{
		{TypeWeatherOK, WeatherOK{Time: 12.5, GridUtilization: 0.25, Servers: 3, TotalPE: 192, Contracts: 7,
			MeanMultiplier: 1.125, BucketMultipliers: map[string]float64{"small": 0.5, "large": 2}},
			"\x00\x00\x00\xb7{\"id\":7,\"type\":\"weather_ok\",\"body\":{\"time\":12.5,\"grid_utilization\":0.25,\"servers\":3,\"total_pe\":192,\"contracts\":7,\"mean_multiplier\":1.125,\"bucket_multipliers\":{\"large\":2,\"small\":0.5}}}"},
		{TypeWeatherOK, WeatherOK{},
			"\x00\x00\x00~{\"id\":7,\"type\":\"weather_ok\",\"body\":{\"time\":0,\"grid_utilization\":0,\"servers\":0,\"total_pe\":0,\"contracts\":0,\"mean_multiplier\":0}}"},
		{TypeHistoryOK, HistoryOK{Records: []bidding.HistoryRecord{{Time: 4, App: "synth", MinPE: 2, MaxPE: 16, Multiplier: 1.5}, {App: "namd"}}},
			"\x00\x00\x00\xaf{\"id\":7,\"type\":\"history_ok\",\"body\":{\"records\":[{\"time\":4,\"app\":\"synth\",\"min_pe\":2,\"max_pe\":16,\"multiplier\":1.5},{\"time\":0,\"app\":\"namd\",\"min_pe\":0,\"max_pe\":0,\"multiplier\":0}]}}"},
		{TypeHistoryOK, HistoryOK{},
			"\x00\x00\x004{\"id\":7,\"type\":\"history_ok\",\"body\":{\"records\":null}}"},
	} {
		got, err := AppendFrame(nil, CodecJSON, 7, c.typ, c.body)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != c.want {
			t.Errorf("%s frame %q, want %q", c.typ, got, c.want)
		}
	}
}
