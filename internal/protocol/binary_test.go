package protocol

import (
	"bytes"
	"errors"
	"net"
	"reflect"
	"testing"
	"time"

	"faucets/internal/bidding"
	"faucets/internal/machine"
	"faucets/internal/qos"
)

// benchContract builds a fully-populated contract so encoder tests cover
// every field, including payoff and phases.
func testContract() *qos.Contract {
	return &qos.Contract{
		App: "jacobi", MinPE: 4, MaxPE: 64, MemPerPE: 512, TotalMem: 8192,
		Work: 1200.5, EffMin: 0.4, EffMax: 0.95,
		Payoff:   qos.Payoff{Soft: 100, Hard: 40, AtSoft: 600, AtHard: 1200, Penalty: 10},
		Deadline: 1800,
		Phases: []qos.Phase{
			{Name: "setup", Work: 10, MinPE: 1, MaxPE: 4, EffMin: 0.9, EffMax: 1},
			{Name: "solve", Work: 1190.5, MinPE: 4, MaxPE: 64, EffMin: 0.4, EffMax: 0.95},
		},
	}
}

func testBid() bidding.Bid {
	return bidding.Bid{Server: "lemieux", Price: 12.75, Multiplier: 1.25, EstCompletion: 900.25, ExpiresAt: 42}
}

// TestBinaryRoundTripAllTypes encodes every hot type at the binary codec
// ceiling, reads the frame back, and requires a field-exact decode.
func TestBinaryRoundTripAllTypes(t *testing.T) {
	cases := []struct {
		typ  string
		body any
		got  func() any // fresh decode target
	}{
		{TypeError, ErrorBody{Message: "nope", Retryable: true}, func() any { return &ErrorBody{} }},
		{TypeBidReq, BidReq{User: "u", Token: "tok", Contract: testContract()}, func() any { return &BidReq{} }},
		{TypeBidOK, BidOK{Bid: testBid()}, func() any { return &BidOK{} }},
		{TypeCommitReq, CommitReq{User: "u", Token: "tok", JobID: "job-1", Bid: testBid()}, func() any { return &CommitReq{} }},
		{TypeCommitOK, CommitOK{JobID: "job-1"}, func() any { return &CommitOK{} }},
		{TypeSubmitReq, SubmitReq{User: "u", Token: "tok", JobID: "job-1", Contract: testContract()}, func() any { return &SubmitReq{} }},
		{TypeSubmitOK, SubmitOK{JobID: "job-1"}, func() any { return &SubmitOK{} }},
		{TypeSettleReq, SettleReq{JobID: "job-1", User: "u", Server: "s", HomeCluster: "h", App: "a", MinPE: 2, MaxPE: 8, Price: 3.5, CPUSeconds: 77}, func() any { return &SettleReq{} }},
		{TypePollOK, PollOK{UsedPE: 12, QueueLen: 3, Running: 4}, func() any { return &PollOK{} }},
		{TypeVerifyReq, VerifyReq{User: "u", Token: "tok"}, func() any { return &VerifyReq{} }},
		{TypeVerifyOK, VerifyOK{User: "u"}, func() any { return &VerifyOK{} }},
		{TypeGossipOK, GossipOK{
			Servers: []ServerInfo{
				{Spec: machine.Spec{Name: "lemieux", NumPE: 64, MemPerPE: 512, CPUType: "x86", Speed: 1.5, CostRate: 0.02}, Addr: "10.0.0.2:7000", Apps: []string{"jacobi", "md"}, Home: "psc", UsedPE: 12},
				{Spec: machine.Spec{Name: "tack", NumPE: 8}, Addr: "10.0.0.3:7000"},
			},
			Weather: WeatherDigest{Servers: 2, TotalPE: 72, UsedPE: 12, Contracts: 7, MeanMultiplier: 1.3},
		}, func() any { return &GossipOK{} }},
		{TypeForwardSettleReq, ForwardSettleReq{JobID: "job-2", User: "u", Server: "s", HomeCluster: "h", App: "a", MinPE: 2, MaxPE: 8, Price: 3.5, CPUSeconds: 77}, func() any { return &ForwardSettleReq{} }},
		{TypeListServersReq, ListServersReq{Token: "tok", Contract: testContract()}, func() any { return &ListServersReq{} }},
		// A nil contract means "list everything" and must arrive nil.
		{TypeListServersReq, ListServersReq{Token: "tok"}, func() any { return &ListServersReq{} }},
		{TypeListServersOK, ListServersOK{Servers: []ServerInfo{
			{Spec: machine.Spec{Name: "lemieux", NumPE: 64, MemPerPE: 512, CPUType: "x86", Speed: 1.5, CostRate: 0.02}, Addr: "10.0.0.2:7000", Apps: []string{"jacobi", "md"}, Home: "psc", UsedPE: 12},
			{Spec: machine.Spec{Name: "tack", NumPE: 8}, Addr: "10.0.0.3:7000"},
		}}, func() any { return &ListServersOK{} }},
		{TypeListServersOK, ListServersOK{}, func() any { return &ListServersOK{} }},
		{TypeASRegisterReq, ASRegisterReq{JobID: "job-1", Owner: "u", Server: "lemieux", App: "md"}, func() any { return &ASRegisterReq{} }},
		{TypeTelemetry, Telemetry{JobID: "job-1", Time: 12.5, PEs: 8, Util: 0.93, Done: 0.4, State: "running", Output: "step 7\n"}, func() any { return &Telemetry{} }},
		// A sample with no output text (every periodic one) and a zero one.
		{TypeTelemetry, Telemetry{JobID: "job-1", State: "finished", Done: 1}, func() any { return &Telemetry{} }},
	}
	for _, tc := range cases {
		buf, err := AppendFrame(nil, CodecBinary, 7, tc.typ, tc.body)
		if err != nil {
			t.Fatalf("%s: encode: %v", tc.typ, err)
		}
		f, err := ReadFrame(bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("%s: read: %v", tc.typ, err)
		}
		if f.codec != CodecBinary {
			t.Fatalf("%s: arrived as codec %d, want binary", tc.typ, f.codec)
		}
		if f.ID != 7 || f.Type != tc.typ {
			t.Fatalf("%s: header mismatch: id=%d type=%q", tc.typ, f.ID, f.Type)
		}
		got := tc.got()
		if err := Decode(f, tc.typ, got); err != nil {
			t.Fatalf("%s: decode: %v", tc.typ, err)
		}
		want := reflect.ValueOf(tc.body)
		if !reflect.DeepEqual(reflect.ValueOf(got).Elem().Interface(), want.Interface()) {
			t.Fatalf("%s: round trip mismatch:\n got %+v\nwant %+v", tc.typ, reflect.ValueOf(got).Elem().Interface(), tc.body)
		}
	}
}

// TestBinaryFieldFreeTypesRoundTrip covers the zero-field hot types,
// whose binary bodies are empty on purpose.
func TestBinaryFieldFreeTypesRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		typ  string
		body any
	}{
		{TypeSettleOK, SettleOK{}},
		{TypePollReq, PollReq{}},
		{TypeGossipReq, GossipReq{}},
	} {
		buf, err := AppendFrame(nil, CodecBinary, 3, tc.typ, tc.body)
		if err != nil {
			t.Fatalf("%s: encode: %v", tc.typ, err)
		}
		f, err := ReadFrame(bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("%s: read: %v", tc.typ, err)
		}
		if f.codec != CodecBinary || len(f.Body) != 0 {
			t.Fatalf("%s: codec=%d body=%d bytes, want binary empty body", tc.typ, f.codec, len(f.Body))
		}
		if err := Decode(f, tc.typ, &struct{}{}); err != nil {
			t.Fatalf("%s: decode: %v", tc.typ, err)
		}
	}
}

// TestBinaryCodecFallsBackToJSONForColdTypes: types without a binary
// encoding leave as JSON frames, readable by anyone.
func TestBinaryCodecFallsBackToJSONForColdTypes(t *testing.T) {
	buf, err := AppendFrame(nil, CodecBinary, 9, TypeAuthReq, AuthReq{User: "u", Password: "p"})
	if err != nil {
		t.Fatal(err)
	}
	if buf[4] != '{' {
		t.Fatalf("cold type should ride as JSON, payload starts 0x%02x", buf[4])
	}
	f, err := ReadFrame(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	var got AuthReq
	if err := Decode(f, TypeAuthReq, &got); err != nil {
		t.Fatal(err)
	}
	if got.User != "u" || got.Password != "p" {
		t.Fatalf("fallback round trip mismatch: %+v", got)
	}
}

// TestBinaryRejectsCorruption: truncated bodies, trailing bytes, unknown
// type codes and versions must error, never panic or fabricate data.
func TestBinaryRejectsCorruption(t *testing.T) {
	good, err := AppendFrame(nil, CodecBinary, 1, TypeBidReq, BidReq{User: "u", Token: "t", Contract: testContract()})
	if err != nil {
		t.Fatal(err)
	}

	// Truncated body: shorten payload, fix the length prefix.
	trunc := append([]byte(nil), good[:len(good)-5]...)
	trunc[0], trunc[1], trunc[2], trunc[3] = 0, 0, byte((len(trunc)-4)>>8), byte(len(trunc)-4)
	if f, err := ReadFrame(bytes.NewReader(trunc)); err == nil {
		var m BidReq
		if err := Decode(f, TypeBidReq, &m); !errors.Is(err, ErrBinaryFrame) {
			t.Fatalf("truncated body decoded: err=%v m=%+v", err, m)
		}
	}

	// Trailing bytes after a valid body.
	trail := append(append([]byte(nil), good...), 0xAA, 0xBB)
	trail[2], trail[3] = byte((len(trail)-4)>>8), byte(len(trail)-4)
	f, err := ReadFrame(bytes.NewReader(trail))
	if err != nil {
		t.Fatalf("read with trailing bytes: %v", err)
	}
	var m BidReq
	if err := Decode(f, TypeBidReq, &m); !errors.Is(err, ErrBinaryFrame) {
		t.Fatalf("trailing bytes accepted: %v", err)
	}

	// Unknown type code.
	bad := append([]byte(nil), good...)
	bad[6] = 0xEE
	if _, err := ReadFrame(bytes.NewReader(bad)); !errors.Is(err, ErrBinaryFrame) {
		t.Fatalf("unknown type code accepted: %v", err)
	}

	// Unsupported codec version.
	bad = append([]byte(nil), good...)
	bad[5] = 99
	if _, err := ReadFrame(bytes.NewReader(bad)); !errors.Is(err, ErrBinaryFrame) {
		t.Fatalf("future codec version accepted: %v", err)
	}
}

// TestDecodeEmptyBodyTable sweeps every frame type: the field-free ones
// must accept an absent body, every field-bearing type must refuse it
// with ErrEmptyBody instead of handing back a zero-valued struct.
func TestDecodeEmptyBodyTable(t *testing.T) {
	all := []string{
		TypeError,
		TypeAuthReq, TypeAuthOK, TypeListServersReq, TypeListServersOK,
		TypeListAppsReq, TypeListAppsOK, TypeCreditsReq, TypeCreditsOK,
		TypeRegisterReq, TypeRegisterOK, TypePollReq, TypePollOK,
		TypeVerifyReq, TypeVerifyOK, TypeSettleReq, TypeSettleOK,
		TypeWeatherReq, TypeWeatherOK, TypePeerVerifyReq,
		TypeHistoryReq, TypeHistoryOK,
		TypeBidReq, TypeBidOK,
		TypeCommitReq, TypeCommitOK, TypeSubmitReq, TypeSubmitOK,
		TypeUploadReq, TypeUploadOK, TypeStatusReq, TypeStatusOK,
		TypeOutputReq, TypeOutputOK, TypeKillReq, TypeKillOK,
		TypeASRegisterReq, TypeTelemetry,
		TypeWatchReq, TypeWatchOK, TypeWatchEnd,
		TypeGossipReq, TypeGossipOK, TypeForwardSettleReq,
	}
	fieldFree := map[string]bool{
		TypeError:      true,
		TypeRegisterOK: true,
		TypePollReq:    true,
		TypeSettleOK:   true,
		TypeWeatherReq: true,
		TypeWatchEnd:   true,
		TypeGossipReq:  true,
	}
	for _, typ := range all {
		f := Frame{Type: typ}
		var v any
		err := Decode(f, typ, &v)
		if fieldFree[typ] {
			if err != nil {
				t.Errorf("%s: field-free type rejected empty body: %v", typ, err)
			}
		} else if !errors.Is(err, ErrEmptyBody) {
			t.Errorf("%s: empty body accepted (err=%v), want ErrEmptyBody", typ, err)
		}
	}
}

// TestCallRejectsMismatchedReplyID: a reply not stamped with this
// request's ID — a stale answer to an earlier call, or an unstamped
// frame — must fail the call with IDMismatchError, not decode as this
// call's answer.
func TestCallRejectsMismatchedReplyID(t *testing.T) {
	for _, tc := range []struct {
		name    string
		replyID func(reqID uint64) uint64
	}{
		{"stale", func(reqID uint64) uint64 { return reqID + 1000 }},
		{"zero", func(uint64) uint64 { return 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cli, srv := net.Pipe()
			defer cli.Close()
			defer srv.Close()
			go func() {
				f, err := ReadFrame(srv)
				if err != nil {
					return
				}
				_ = writeFrame(srv, tc.replyID(f.ID), TypePollOK, PollOK{UsedPE: 1})
			}()
			var reply PollOK
			err := Call(cli, TypePollReq, nil, TypePollOK, &reply)
			var mismatch *IDMismatchError
			if !errors.As(err, &mismatch) {
				t.Fatalf("mismatched reply accepted: err=%v reply=%+v", err, reply)
			}
			if mismatch.Got != tc.replyID(mismatch.Want) {
				t.Fatalf("mismatch detail wrong: %+v", mismatch)
			}
		})
	}
}

// TestFrameArrivesAsSingleWrite pins the single-write framing property:
// header and payload must leave in one Write call, so concurrent
// writers not sharing a mutex can never interleave a frame. net.Pipe is
// unbuffered and delivers exactly one Write per Read, which makes a
// split write observable: the first Read would return only the first
// segment.
func TestFrameArrivesAsSingleWrite(t *testing.T) {
	// One type of each payload shape: BidOK leaves binary, HistoryOK JSON.
	for codec, msg := range []struct {
		typ  string
		body any
	}{
		CodecJSON:   {TypeHistoryOK, HistoryOK{Records: []bidding.HistoryRecord{{App: "synth", MaxPE: 8}}}},
		CodecBinary: {TypeBidOK, BidOK{Bid: testBid()}},
	} {
		cli, srv := net.Pipe()
		errc := make(chan error, 1)
		go func() {
			errc <- writeFrame(cli, 42, msg.typ, msg.body)
		}()
		buf := make([]byte, 64<<10)
		srv.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, err := srv.Read(buf)
		if err != nil {
			t.Fatalf("codec %d: read: %v", codec, err)
		}
		if werr := <-errc; werr != nil {
			t.Fatalf("codec %d: write: %v", codec, werr)
		}
		// The one Read must hold the complete frame: 4-byte length prefix
		// plus exactly the advertised payload.
		if n < 4 {
			t.Fatalf("codec %d: first write carried %d bytes, not even a header", codec, n)
		}
		want := 4 + int(uint32(buf[0])<<24|uint32(buf[1])<<16|uint32(buf[2])<<8|uint32(buf[3]))
		if n != want {
			t.Fatalf("codec %d: frame split across writes: first write %d bytes, frame is %d", codec, n, want)
		}
		f, err := ReadFrame(bytes.NewReader(buf[:n]))
		if err != nil {
			t.Fatalf("codec %d: parse: %v", codec, err)
		}
		if f.ID != 42 || f.Type != msg.typ || int(f.codec) != codec {
			t.Fatalf("codec %d: frame header mismatch: %+v", codec, f)
		}
		cli.Close()
		srv.Close()
	}
}

// TestFrameReaderReusesBuffer: consecutive small frames must not
// reallocate the payload buffer, and binary/JSON frames may interleave
// on one stream.
func TestFrameReaderReusesBuffer(t *testing.T) {
	var buf []byte
	for i := 0; i < 3; i++ {
		for _, codec := range []uint8{CodecBinary, CodecJSON} {
			var err error
			if buf, err = AppendFrame(buf, codec, uint64(i+1), TypeVerifyReq, VerifyReq{User: "u", Token: "t"}); err != nil {
				t.Fatal(err)
			}
		}
	}
	fr := NewFrameReader(bytes.NewReader(buf))
	for i := 0; i < 6; i++ {
		f, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		var m VerifyReq
		if err := Decode(f, TypeVerifyReq, &m); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if m.User != "u" || m.Token != "t" {
			t.Fatalf("frame %d: body mismatch: %+v", i, m)
		}
	}
	if _, err := fr.Next(); err == nil {
		t.Fatal("expected EOF after last frame")
	}
}
