package protocol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"faucets/internal/bidding"
	"faucets/internal/machine"
	"faucets/internal/qos"
)

// A frame is decoded into a value the reader may have decoded into
// before. These tests hold that to one rule — the result is exactly what
// a decode into a zero value gives — for both codecs, and pin what a
// hostile count field can cost.

// countBomb is a binary frame of typ whose body is prefix, then a
// repeated-group count claiming n elements, then zero padding up to size
// bytes of body.
func countBomb(t testing.TB, typ string, prefix []byte, n uint32, size int) []byte {
	t.Helper()
	body := binary.BigEndian.AppendUint32(append([]byte(nil), prefix...), n)
	body = append(body, make([]byte, size-len(body))...)
	frame := binary.BigEndian.AppendUint32(nil, uint32(binHeaderLen+len(body)))
	frame = append(frame, binMagic, CodecBinary, binCodeOf[typ])
	frame = binary.BigEndian.AppendUint64(frame, 1)
	return append(frame, body...)
}

// contractPrefix is a present contract's encoding up to its phase count.
func contractPrefix(lead ...string) []byte {
	var b []byte
	for _, s := range lead {
		b = appendStr(b, s)
	}
	b = append(b, 1)                        // contract present
	b = appendStr(b, "a")                   // App
	return append(b, make([]byte, 13*8)...) // the thirteen scalars before Phases
}

// TestCountFieldCannotOutbuyItsFrame: a repeated group's count is
// bounded by what the bytes left could encode, so a frame whose count
// claims millions of elements is refused having allocated less than
// twice its own size. (The bound used to be one element per byte left:
// a 4 MiB list_servers_ok claiming 4M servers allocated 512 MiB of
// ServerInfo before reading one, and the phases variant reaches a daemon
// or Central Server before verify.)
func TestCountFieldCannotOutbuyItsFrame(t *testing.T) {
	const size = 4 << 20
	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"list_servers_ok", countBomb(t, TypeListServersOK, nil, size-8, size)},
		{"gossip_ok", countBomb(t, TypeGossipOK, nil, size-8, size)},
		{"bid_req_phases", countBomb(t, TypeBidReq, contractPrefix("u", "t"), size/2, size)},
		{"submit_req_phases", countBomb(t, TypeSubmitReq, contractPrefix("u", "t", "j"), size/2, size)},
		{"list_servers_req_phases", countBomb(t, TypeListServersReq, contractPrefix("t"), size/2, size)},
		{"server_apps", countBomb(t, TypeListServersOK, append(binary.BigEndian.AppendUint32(nil, 1), make([]byte, 44)...), size/2, size)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			fr, err := ReadFrame(bytes.NewReader(tc.frame))
			if err == nil {
				_, err = decodeFresh(fr)
			}
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrBinaryFrame) {
				t.Fatalf("crafted frame: err=%v, want ErrBinaryFrame", err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got >= 2*uint64(len(tc.frame)) {
				t.Fatalf("refusing a %d-byte frame allocated %d bytes (%.1f×), want < 2×",
					len(tc.frame), got, float64(got)/float64(len(tc.frame)))
			}
		})
	}
}

// genBody draws a random body of the binary type typ: strings from a
// small alphabet (so equal and unequal neighbours both occur), groups of
// 0–3 elements, nil and non-nil contracts.
func genBody(rng *rand.Rand, typ string) any {
	str := func() string { return []string{"", "a", "b", "alice", "lemieux:7000"}[rng.Intn(5)] }
	contract := func() *qos.Contract {
		if rng.Intn(4) == 0 {
			return nil
		}
		c := &qos.Contract{App: str(), MinPE: rng.Intn(9), MaxPE: rng.Intn(65), Work: rng.Float64() * 100,
			Payoff: qos.Payoff{Soft: rng.Float64(), Hard: rng.Float64()}, Mechanism: str()}
		for i := rng.Intn(4); i > 0; i-- {
			c.Phases = append(c.Phases, qos.Phase{Name: str(), Work: rng.Float64(), MinPE: rng.Intn(4), MaxPE: rng.Intn(9)})
		}
		return c
	}
	bid := func() bidding.Bid {
		return bidding.Bid{Server: str(), Price: rng.Float64(), Multiplier: rng.Float64(), EstCompletion: rng.Float64(), ExpiresAt: rng.Float64()}
	}
	servers := func() []ServerInfo {
		var out []ServerInfo
		for i := rng.Intn(4); i > 0; i-- {
			si := ServerInfo{Spec: machine.Spec{Name: str(), NumPE: rng.Intn(65), CPUType: str(), Speed: rng.Float64()},
				Addr: str(), Home: str(), UsedPE: rng.Intn(3)}
			for j := rng.Intn(4); j > 0; j-- {
				si.Apps = append(si.Apps, str())
			}
			out = append(out, si)
		}
		return out
	}
	settle := func() SettleReq {
		return SettleReq{JobID: str(), User: str(), Server: str(), HomeCluster: str(), App: str(),
			MinPE: rng.Intn(5), MaxPE: rng.Intn(9), Price: rng.Float64(), CPUSeconds: rng.Float64()}
	}
	switch typ {
	case TypeError:
		return &ErrorBody{Message: str(), Retryable: rng.Intn(2) == 0}
	case TypeBidReq:
		return &BidReq{User: str(), Token: str(), Contract: contract()}
	case TypeBidOK:
		return &BidOK{Bid: bid()}
	case TypeCommitReq:
		return &CommitReq{User: str(), Token: str(), JobID: str(), Bid: bid()}
	case TypeCommitOK:
		return &CommitOK{JobID: str()}
	case TypeSubmitReq:
		return &SubmitReq{User: str(), Token: str(), JobID: str(), Contract: contract()}
	case TypeSubmitOK:
		return &SubmitOK{JobID: str()}
	case TypeSettleReq:
		m := settle()
		return &m
	case TypeForwardSettleReq:
		m := ForwardSettleReq(settle())
		return &m
	case TypePollOK:
		return &PollOK{UsedPE: rng.Intn(9), QueueLen: rng.Intn(9), Running: rng.Intn(9)}
	case TypeVerifyReq:
		return &VerifyReq{User: str(), Token: str()}
	case TypeVerifyOK:
		return &VerifyOK{User: str()}
	case TypeGossipOK:
		return &GossipOK{Servers: servers(), Weather: WeatherDigest{Servers: rng.Intn(9), MeanMultiplier: rng.Float64()}}
	case TypeListServersReq:
		return &ListServersReq{Token: str(), Contract: contract()}
	case TypeListServersOK:
		return &ListServersOK{Servers: servers()}
	case TypeASRegisterReq:
		return &ASRegisterReq{JobID: str(), Owner: str(), Server: str(), App: str()}
	case TypeTelemetry:
		return &Telemetry{JobID: str(), Time: rng.Float64(), PEs: rng.Intn(9), Util: rng.Float64(), Done: rng.Float64(), State: str(), Output: str()}
	}
	return zeroBody(typ) // the field-free types
}

// frameOf encodes body as one frame of typ in the given codec and reads
// it back off the wire.
func frameOf(t testing.TB, codec uint8, typ string, body any) Frame {
	t.Helper()
	buf, err := AppendFrame(nil, codec, 1, typ, body)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := ReadFrame(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if fr.codec != codec {
		t.Fatalf("%s arrived as codec %d, want %d", typ, fr.codec, codec)
	}
	return fr
}

// checkDirtyEqualsFresh decodes a then b into one target and requires
// the result to be b decoded into a zero value.
func checkDirtyEqualsFresh(t testing.TB, typ string, a, b Frame) {
	t.Helper()
	fresh := zeroBody(typ)
	if err := Decode(b, typ, fresh); err != nil {
		return // b is refused either way; after an error the target is unspecified
	}
	dirty := zeroBody(typ)
	_ = Decode(a, typ, dirty) // a failed first decode leaves garbage: the harder case
	if err := Decode(b, typ, dirty); err != nil {
		t.Fatalf("%s: decodes into a zero value but not into a used one: %v", typ, err)
	}
	if !reflect.DeepEqual(dirty, fresh) {
		t.Fatalf("%s: decode into a used target\n got %+v\nwant %+v", typ, dirty, fresh)
	}
}

// TestDecodeIntoUsedTargetMatchesFresh is the property over every binary
// type and a seeded generator, in both codecs: binary decoders overwrite
// every field, and the JSON path — json.Unmarshal merges, and omitempty
// drops home/used_pe/contract from the frame — resets the target first.
func TestDecodeIntoUsedTargetMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, typ := range binTypeOf {
		if typ == "" {
			continue // an unassigned code
		}
		for _, codec := range []uint8{CodecBinary, CodecJSON} {
			for i := 0; i < 200; i++ {
				a := frameOf(t, codec, typ, genBody(rng, typ))
				b := frameOf(t, codec, typ, genBody(rng, typ))
				checkDirtyEqualsFresh(t, typ, a, b)
			}
		}
	}
}

// TestDecodeIntoNamedCases spells out the transitions the generator only
// probably hits.
func TestDecodeIntoNamedCases(t *testing.T) {
	phases := func(n int) *qos.Contract {
		c := &qos.Contract{App: "a", MinPE: 1, MaxPE: 2, Work: 1}
		for i := 0; i < n; i++ {
			c.Phases = append(c.Phases, qos.Phase{Name: fmt.Sprint("p", i), Work: float64(i)})
		}
		return c
	}
	var req BidReq
	for step, c := range []*qos.Contract{phases(2), phases(0), phases(3), nil, phases(1)} {
		want := BidReq{User: "u", Token: "t", Contract: c}
		if err := Decode(frameOf(t, CodecBinary, TypeBidReq, want), TypeBidReq, &req); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(req, want) {
			t.Fatalf("step %d: got %+v (contract %+v), want %+v", step, req, req.Contract, want)
		}
	}

	// JSON drops what omitempty says to: a used target must not keep it.
	full := ListServersOK{Servers: []ServerInfo{{Addr: "a:1", Apps: []string{"x", "y"}, Home: "psc", UsedPE: 9}}}
	bare := ListServersOK{Servers: []ServerInfo{{Addr: "b:2"}}}
	var got ListServersOK
	for _, want := range []ListServersOK{full, bare} {
		if err := Decode(frameOf(t, CodecJSON, TypeListServersOK, want), TypeListServersOK, &got); err != nil {
			t.Fatal(err)
		}
	}
	if s := got.Servers[0]; s.Home != "" || s.UsedPE != 0 || s.Apps != nil {
		t.Fatalf("JSON decode kept the previous frame's fields: %+v", s)
	}
	lreq := ListServersReq{Token: "t", Contract: phases(1)}
	_ = Decode(frameOf(t, CodecJSON, TypeListServersReq, lreq), TypeListServersReq, &lreq)
	if err := Decode(frameOf(t, CodecJSON, TypeListServersReq, ListServersReq{Token: "t"}), TypeListServersReq, &lreq); err != nil || lreq.Contract != nil {
		t.Fatalf("JSON list_servers_req without a contract kept the old one: %+v (err %v)", lreq.Contract, err)
	}
}

// TestDecodeIntoKeepsEqualStorage: what the used target buys is storage —
// a slice keeps its array, a contract its struct (and allocs_test.go: a
// warm decode of a like frame allocates nothing).
func TestDecodeIntoKeepsEqualStorage(t *testing.T) {
	want := BidReq{User: "alice", Token: "tok", Contract: testContract()}
	fr := frameOf(t, CodecBinary, TypeBidReq, want)
	var req BidReq
	if err := Decode(fr, TypeBidReq, &req); err != nil {
		t.Fatal(err)
	}
	contract, phases := req.Contract, &req.Contract.Phases[0]
	if err := Decode(fr, TypeBidReq, &req); err != nil {
		t.Fatal(err)
	}
	if req.Contract != contract || &req.Contract.Phases[0] != phases || !reflect.DeepEqual(req, want) {
		t.Fatalf("warm decode replaced the target's storage or changed its value: %+v", req)
	}
}

// FuzzDecodeIntoDirtyTarget: for arbitrary frame pairs of one binary
// type, decoding the second into the target the first was decoded into
// is indistinguishable from decoding it into a zero value. Compared as
// canonical encodings, so NaN payloads do not trip a struct comparison.
func FuzzDecodeIntoDirtyTarget(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, typ := range binTypeOf {
		if typ == "" {
			continue
		}
		a, _ := AppendFrame(nil, CodecBinary, 1, typ, genBody(rng, typ))
		b, _ := AppendFrame(nil, CodecBinary, 2, typ, genBody(rng, typ))
		f.Add(a, b)
	}
	f.Add(countBomb(f, TypeListServersOK, nil, 1<<20, 4096), countBomb(f, TypeBidReq, contractPrefix("u", "t"), 1<<20, 4096))
	f.Fuzz(func(t *testing.T, first, second []byte) {
		a, err := ReadFrame(bytes.NewReader(first))
		if err != nil || a.codec != CodecBinary {
			return
		}
		b, err := ReadFrame(bytes.NewReader(second))
		if err != nil || b.Type != a.Type || b.codec != CodecBinary {
			return
		}
		fresh := zeroBody(b.Type)
		if Decode(b, b.Type, fresh) != nil {
			return
		}
		dirty := zeroBody(b.Type)
		_ = Decode(a, a.Type, dirty)
		if err := Decode(b, b.Type, dirty); err != nil {
			t.Fatalf("%s: decodes fresh but not dirty: %v", b.Type, err)
		}
		want, _ := AppendFrame(nil, CodecBinary, b.ID, b.Type, fresh)
		got, _ := AppendFrame(nil, CodecBinary, b.ID, b.Type, dirty)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: dirty target re-encodes differently:\n got %x\nwant %x", b.Type, got, want)
		}
		// nil and empty groups encode alike, so the values are compared too —
		// unless the frame carries a NaN, which no second decode equals.
		if again := zeroBody(b.Type); !reflect.DeepEqual(dirty, fresh) && Decode(b, b.Type, again) == nil && reflect.DeepEqual(again, fresh) {
			t.Fatalf("%s: dirty target differs:\n got %+v\nwant %+v", b.Type, dirty, fresh)
		}
	})
}
