package protocol

import (
	"bytes"
	"testing"

	"faucets/internal/bidding"
	"faucets/internal/qos"
)

// zeroBody returns a pointer to a zero message of the binary type typ:
// the target a reader that knows the type would pass.
func zeroBody(typ string) any {
	switch typ {
	case TypeError:
		return &ErrorBody{}
	case TypeBidReq:
		return &BidReq{}
	case TypeBidOK:
		return &BidOK{}
	case TypeCommitReq:
		return &CommitReq{}
	case TypeCommitOK:
		return &CommitOK{}
	case TypeSubmitReq:
		return &SubmitReq{}
	case TypeSubmitOK:
		return &SubmitOK{}
	case TypeSettleReq:
		return &SettleReq{}
	case TypeSettleOK:
		return &SettleOK{}
	case TypePollReq:
		return &PollReq{}
	case TypePollOK:
		return &PollOK{}
	case TypeVerifyReq:
		return &VerifyReq{}
	case TypeVerifyOK:
		return &VerifyOK{}
	case TypeGossipReq:
		return &GossipReq{}
	case TypeGossipOK:
		return &GossipOK{}
	case TypeForwardSettleReq:
		return &ForwardSettleReq{}
	case TypeListServersReq:
		return &ListServersReq{}
	case TypeListServersOK:
		return &ListServersOK{}
	case TypeASRegisterReq:
		return &ASRegisterReq{}
	case TypeTelemetry:
		return &Telemetry{}
	}
	return nil
}

// decodeFresh decodes a binary frame into a zero message of its type.
func decodeFresh(fr Frame) (any, error) {
	v := zeroBody(fr.Type)
	return v, Decode(fr, fr.Type, v)
}

// FuzzReadFrame throws arbitrary bytes at the frame decoder: it must
// never panic or allocate unbounded memory, only return errors.
func FuzzReadFrame(f *testing.F) {
	// Seed with a valid frame of each codec and a few corruptions.
	var good bytes.Buffer
	_ = WriteFrame(&good, TypeAuthReq, AuthReq{User: "u", Password: "p"})
	f.Add(good.Bytes())
	if bin, err := AppendFrame(nil, CodecBinary, 1, TypeVerifyReq, VerifyReq{User: "u", Token: "t"}); err == nil {
		f.Add(bin)
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, '{'})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0, 0, 0, 5, 'h', 'e', 'l', 'l', 'o'})
	f.Add([]byte{0, 0, 0, 12, binMagic, 1, 12, 0, 0, 0, 0, 0, 0, 0, 1, 9})
	// Counts far past what their frames could hold (see
	// TestCountFieldCannotOutbuyItsFrame).
	f.Add(countBomb(f, TypeListServersOK, nil, 1<<22, 256))
	f.Add(countBomb(f, TypeBidReq, contractPrefix("u", "t"), 1<<22, 256))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if fr.Codec() == CodecBinary {
			// Binary bodies are raw bytes; structured decode may refuse a
			// crafted body, but a body that decodes must re-encode.
			v, err := decodeFresh(fr)
			if err != nil {
				return
			}
			if _, err := AppendFrame(nil, CodecBinary, fr.ID, fr.Type, v); err != nil {
				t.Fatalf("re-encode of decoded binary frame failed: %v", err)
			}
			return
		}
		// Decoded JSON frames must round-trip through the writer.
		var buf bytes.Buffer
		if fr.Body != nil {
			var v any
			_ = Decode(fr, fr.Type, &v)
		}
		if err := WriteFrame(&buf, fr.Type, fr.Body); err != nil {
			t.Fatalf("re-encode of decoded frame failed: %v", err)
		}
	})
}

// FuzzBinaryFrameRoundtrip mirrors FuzzReadFrame for the binary codec:
// any crafted payload that parses and decodes must re-encode to a frame
// that parses and decodes to byte-identical canonical bytes. Comparing
// the two canonical encodings (rather than decoded structs) keeps NaN
// float bit patterns from tripping a struct comparison.
func FuzzBinaryFrameRoundtrip(f *testing.F) {
	seed := func(typ string, id uint64, body any) {
		b, err := AppendFrame(nil, CodecBinary, id, typ, body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	contract := &qos.Contract{App: "a", MinPE: 1, MaxPE: 8, Work: 100,
		Phases: []qos.Phase{{Name: "p", Work: 100, MinPE: 1, MaxPE: 8}}}
	bid := bidding.Bid{Server: "s", Price: 1.5, Multiplier: 1.1, EstCompletion: 10, ExpiresAt: 20}
	seed(TypeError, 1, ErrorBody{Message: "m", Retryable: true})
	seed(TypeBidReq, 2, BidReq{User: "u", Token: "t", Contract: contract})
	seed(TypeBidOK, 3, BidOK{Bid: bid})
	seed(TypeCommitReq, 4, CommitReq{User: "u", Token: "t", JobID: "j", Bid: bid})
	seed(TypeSubmitReq, 5, SubmitReq{User: "u", Token: "t", JobID: "j", Contract: contract})
	seed(TypeSettleReq, 6, SettleReq{JobID: "j", User: "u", Server: "s", Price: 1, CPUSeconds: 2})
	seed(TypePollOK, 7, PollOK{UsedPE: 1, QueueLen: 2, Running: 3})
	seed(TypeVerifyReq, 8, VerifyReq{User: "u", Token: "t"})
	seed(TypeGossipOK, 9, GossipOK{Servers: []ServerInfo{{Addr: "b", Apps: []string{"x"}}}})
	seed(TypeForwardSettleReq, 10, ForwardSettleReq{JobID: "j", User: "u", Server: "s", Price: 1, CPUSeconds: 2})
	seed(TypeListServersReq, 11, ListServersReq{Token: "t", Contract: contract})
	seed(TypeListServersReq, 12, ListServersReq{Token: "t"})
	seed(TypeListServersOK, 13, ListServersOK{Servers: []ServerInfo{{Addr: "b", Apps: []string{"x"}}}})
	seed(TypeASRegisterReq, 14, ASRegisterReq{JobID: "j", Owner: "u", Server: "s", App: "a"})
	seed(TypeTelemetry, 15, Telemetry{JobID: "j", Time: 1.5, PEs: 8, Util: 0.9, Done: 0.5, State: "running", Output: "o"})
	f.Add(countBomb(f, TypeListServersOK, nil, 1<<22, 256))
	f.Add(countBomb(f, TypeSubmitReq, contractPrefix("u", "t", "j"), 1<<22, 256))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(bytes.NewReader(data))
		if err != nil || fr.Codec() != CodecBinary {
			return
		}
		v, err := decodeFresh(fr)
		if err != nil {
			return // malformed body: rejected is the correct outcome
		}
		out, err := AppendFrame(nil, CodecBinary, fr.ID, fr.Type, v)
		if err != nil {
			t.Fatalf("re-encode failed for decodable %s: %v", fr.Type, err)
		}
		fr2, err := ReadFrame(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("canonical encoding unreadable: %v", err)
		}
		v2, err := decodeFresh(fr2)
		if err != nil {
			t.Fatalf("canonical encoding undecodable: %v", err)
		}
		out2, err := AppendFrame(nil, CodecBinary, fr2.ID, fr2.Type, v2)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("binary canonical form unstable for %s:\n first %x\nsecond %x", fr.Type, out, out2)
		}
	})
}

// FuzzTelemetryRoundTrip checks write→read→decode over arbitrary field
// contents.
func FuzzTelemetryRoundTrip(f *testing.F) {
	f.Add("job-1", 1.5, 8, "output line")
	f.Add("", 0.0, 0, "")
	f.Fuzz(func(t *testing.T, id string, tm float64, pes int, out string) {
		in := Telemetry{JobID: id, Time: tm, PEs: pes, Output: out}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, TypeTelemetry, in); err != nil {
			t.Skip() // only an over-MaxFrame output can fail: telemetry rides binary
		}
		fr, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("read back: %v", err)
		}
		var got Telemetry
		if err := Decode(fr, TypeTelemetry, &got); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.JobID != in.JobID || got.PEs != in.PEs || got.Output != in.Output {
			t.Fatalf("round trip mismatch: %+v vs %+v", got, in)
		}
	})
}
