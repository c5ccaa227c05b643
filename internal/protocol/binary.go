package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"

	"faucets/internal/bidding"
	"faucets/internal/qos"
)

// This file implements the hand-rolled binary encoding every sender
// uses for the message types a job's trip sends (the directory read,
// solicit/bid/commit/settle, the nested verify, poll, gossip, the
// monitor stream and their error replies — the types in binCodeOf).
// Message types without a binary encoding ride as JSON frames on the
// same connection. Every frame self-describes its shape by its first
// payload byte (JSON objects start '{', binary frames start binMagic),
// so a reader needs no per-connection state to read the mixed stream,
// and there is no handshake to agree on one.
//
// Binary frame layout, after the usual 4-byte big-endian length prefix:
//
//	[0]    binMagic (0xBF — never the first byte of frame JSON)
//	[1]    codec version (CodecBinary)
//	[2]    message type code (binCodeOf)
//	[3:11] frame ID, big-endian uint64
//	[11:]  body, fixed-order fields (see append*/read* pairs)
//
// Scalars are fixed-width big-endian: ints as two's-complement uint64,
// floats as IEEE-754 bits, bools one byte, strings and repeated groups
// length-prefixed with uint32 counts.

// The two payload shapes a reader sniffs. CodecBinary doubles as the
// version byte of the binary header.
const (
	CodecJSON   uint8 = 0
	CodecBinary uint8 = 1
)

// binMagic distinguishes binary payloads from JSON ones. JSON frame
// payloads always begin with '{' (0x7B); 0xBF is also an invalid first
// byte of any UTF-8 JSON document, so sniffing is unambiguous.
const binMagic = 0xBF

// binHeaderLen is the fixed binary header: magic, version, type code,
// and the 8-byte frame ID.
const binHeaderLen = 11

// Binary message type codes. Code 0 is deliberately unassigned so a
// zeroed buffer never parses as a valid frame.
const (
	binError            uint8 = 1
	binBidReq           uint8 = 2
	binBidOK            uint8 = 3
	binCommitReq        uint8 = 4
	binCommitOK         uint8 = 5
	binSubmitReq        uint8 = 6
	binSubmitOK         uint8 = 7
	binSettleReq        uint8 = 8
	binSettleOK         uint8 = 9
	binPollReq          uint8 = 10
	binPollOK           uint8 = 11
	binVerifyReq        uint8 = 12
	binVerifyOK         uint8 = 13 // 14, 15: a removed request/reply pair, left unassigned
	binGossipReq        uint8 = 16
	binGossipOK         uint8 = 17
	binForwardSettleReq uint8 = 18
	binListServersReq   uint8 = 19
	binListServersOK    uint8 = 20
	binASRegisterReq    uint8 = 21
	binTelemetry        uint8 = 22
)

// binCodeOf maps frame type strings to binary codes; binTypeOf is the
// inverse. Types absent here are JSON-only and fall back transparently.
var binCodeOf = map[string]uint8{
	TypeError:            binError,
	TypeBidReq:           binBidReq,
	TypeBidOK:            binBidOK,
	TypeCommitReq:        binCommitReq,
	TypeCommitOK:         binCommitOK,
	TypeSubmitReq:        binSubmitReq,
	TypeSubmitOK:         binSubmitOK,
	TypeSettleReq:        binSettleReq,
	TypeSettleOK:         binSettleOK,
	TypePollReq:          binPollReq,
	TypePollOK:           binPollOK,
	TypeVerifyReq:        binVerifyReq,
	TypeVerifyOK:         binVerifyOK,
	TypeGossipReq:        binGossipReq,
	TypeGossipOK:         binGossipOK,
	TypeForwardSettleReq: binForwardSettleReq,
	TypeListServersReq:   binListServersReq,
	TypeListServersOK:    binListServersOK,
	TypeASRegisterReq:    binASRegisterReq,
	TypeTelemetry:        binTelemetry,
}

var binTypeOf = [23]string{
	binError:            TypeError,
	binBidReq:           TypeBidReq,
	binBidOK:            TypeBidOK,
	binCommitReq:        TypeCommitReq,
	binCommitOK:         TypeCommitOK,
	binSubmitReq:        TypeSubmitReq,
	binSubmitOK:         TypeSubmitOK,
	binSettleReq:        TypeSettleReq,
	binSettleOK:         TypeSettleOK,
	binPollReq:          TypePollReq,
	binPollOK:           TypePollOK,
	binVerifyReq:        TypeVerifyReq,
	binVerifyOK:         TypeVerifyOK,
	binGossipReq:        TypeGossipReq,
	binGossipOK:         TypeGossipOK,
	binForwardSettleReq: TypeForwardSettleReq,
	binListServersReq:   TypeListServersReq,
	binListServersOK:    TypeListServersOK,
	binASRegisterReq:    TypeASRegisterReq,
	binTelemetry:        TypeTelemetry,
}

// ErrBinaryFrame wraps every malformed-binary-payload failure so callers
// can distinguish codec corruption from JSON decode errors.
var ErrBinaryFrame = errors.New("protocol: malformed binary frame")

// --- append-style encoders -------------------------------------------

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendU64(b []byte, v uint64) []byte {
	return append(b, byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendI64(b []byte, v int) []byte { return appendU64(b, uint64(int64(v))) }

func appendF64(b []byte, v float64) []byte { return appendU64(b, math.Float64bits(v)) }

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

func appendBytes(b []byte, p []byte) []byte {
	b = appendU32(b, uint32(len(p)))
	return append(b, p...)
}

func appendContract(b []byte, c *qos.Contract) []byte {
	if c == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = appendStr(b, c.App)
	b = appendI64(b, c.MinPE)
	b = appendI64(b, c.MaxPE)
	b = appendI64(b, c.MemPerPE)
	b = appendI64(b, c.TotalMem)
	b = appendF64(b, c.Work)
	b = appendF64(b, c.EffMin)
	b = appendF64(b, c.EffMax)
	b = appendF64(b, c.Payoff.Soft)
	b = appendF64(b, c.Payoff.Hard)
	b = appendF64(b, c.Payoff.AtSoft)
	b = appendF64(b, c.Payoff.AtHard)
	b = appendF64(b, c.Payoff.Penalty)
	b = appendF64(b, c.Deadline)
	b = appendU32(b, uint32(len(c.Phases)))
	for i := range c.Phases {
		ph := &c.Phases[i]
		b = appendStr(b, ph.Name)
		b = appendF64(b, ph.Work)
		b = appendI64(b, ph.MinPE)
		b = appendI64(b, ph.MaxPE)
		b = appendF64(b, ph.EffMin)
		b = appendF64(b, ph.EffMax)
	}
	return appendStr(b, c.Mechanism)
}

func appendBid(b []byte, bd *bidding.Bid) []byte {
	b = appendStr(b, bd.Server)
	b = appendF64(b, bd.Price)
	b = appendF64(b, bd.Multiplier)
	b = appendF64(b, bd.EstCompletion)
	b = appendF64(b, bd.ExpiresAt)
	return b
}

// binaryAppender is implemented, on value receivers, by every message
// type with a binary body encoding, so a body passed by value and one
// passed by pointer take the same path and the dispatch is one interface
// assertion. (A type switch binding each value-typed message to its own
// local gave appendBinaryBody a 1.3 KiB frame, and every goroutine that
// encoded its first frame grew its stack through it.)
type binaryAppender interface {
	appendBinary(b []byte) []byte
}

// appendBinaryBody appends body's binary encoding, or reports ok ==
// false when the concrete body value has none (the caller falls back to
// JSON for the whole frame).
func appendBinaryBody(dst []byte, body any) ([]byte, bool) {
	if body == nil {
		// No body at all (field-free requests like poll_req): the binary
		// empty body, same semantics as an omitted JSON body.
		return dst, true
	}
	m, ok := body.(binaryAppender)
	if !ok {
		return dst, false
	}
	if v := reflect.ValueOf(body); v.Kind() == reflect.Pointer && v.IsNil() {
		return dst, false // a nil *T has no fields to encode: JSON null
	}
	return m.appendBinary(dst), true
}

func (m ErrorBody) appendBinary(b []byte) []byte {
	b = appendStr(b, m.Message)
	return appendBool(b, m.Retryable)
}

func (m BidReq) appendBinary(b []byte) []byte {
	b = appendStr(b, m.User)
	b = appendStr(b, m.Token)
	return appendContract(b, m.Contract)
}

func (m BidOK) appendBinary(b []byte) []byte { return appendBid(b, &m.Bid) }

func (m CommitReq) appendBinary(b []byte) []byte {
	b = appendStr(b, m.User)
	b = appendStr(b, m.Token)
	b = appendStr(b, m.JobID)
	return appendBid(b, &m.Bid)
}

func (m CommitOK) appendBinary(b []byte) []byte { return appendStr(b, m.JobID) }

func (m SubmitReq) appendBinary(b []byte) []byte {
	b = appendStr(b, m.User)
	b = appendStr(b, m.Token)
	b = appendStr(b, m.JobID)
	return appendContract(b, m.Contract)
}

func (m SubmitOK) appendBinary(b []byte) []byte { return appendStr(b, m.JobID) }

func (m SettleReq) appendBinary(b []byte) []byte {
	b = appendStr(b, m.JobID)
	b = appendStr(b, m.User)
	b = appendStr(b, m.Server)
	b = appendStr(b, m.HomeCluster)
	b = appendStr(b, m.App)
	b = appendI64(b, m.MinPE)
	b = appendI64(b, m.MaxPE)
	b = appendF64(b, m.Price)
	return appendF64(b, m.CPUSeconds)
}

// The field-free types: an empty binary body.
func (SettleOK) appendBinary(b []byte) []byte  { return b }
func (PollReq) appendBinary(b []byte) []byte   { return b }
func (GossipReq) appendBinary(b []byte) []byte { return b }

func (m PollOK) appendBinary(b []byte) []byte {
	b = appendI64(b, m.UsedPE)
	b = appendI64(b, m.QueueLen)
	return appendI64(b, m.Running)
}

func (m VerifyReq) appendBinary(b []byte) []byte {
	b = appendStr(b, m.User)
	return appendStr(b, m.Token)
}

func (m VerifyOK) appendBinary(b []byte) []byte { return appendStr(b, m.User) }

func (m GossipOK) appendBinary(b []byte) []byte {
	b = appendServerInfos(b, m.Servers)
	b = appendI64(b, m.Weather.Servers)
	b = appendI64(b, m.Weather.TotalPE)
	b = appendI64(b, m.Weather.UsedPE)
	b = appendI64(b, m.Weather.Contracts)
	return appendF64(b, m.Weather.MeanMultiplier)
}

// ForwardSettleReq is SettleReq under another type: one encoding.
func (m ForwardSettleReq) appendBinary(b []byte) []byte { return SettleReq(m).appendBinary(b) }

func (m ListServersReq) appendBinary(b []byte) []byte {
	return appendContract(appendStr(b, m.Token), m.Contract)
}

func (m ListServersOK) appendBinary(b []byte) []byte { return appendServerInfos(b, m.Servers) }

func (m ASRegisterReq) appendBinary(b []byte) []byte {
	b = appendStr(b, m.JobID)
	b = appendStr(b, m.Owner)
	b = appendStr(b, m.Server)
	return appendStr(b, m.App)
}

func (m Telemetry) appendBinary(b []byte) []byte {
	b = appendStr(b, m.JobID)
	b = appendF64(b, m.Time)
	b = appendI64(b, m.PEs)
	b = appendF64(b, m.Util)
	b = appendF64(b, m.Done)
	b = appendStr(b, m.State)
	return appendStr(b, m.Output)
}

func appendServerInfo(b []byte, si *ServerInfo) []byte {
	b = appendStr(b, si.Spec.Name)
	b = appendI64(b, si.Spec.NumPE)
	b = appendI64(b, si.Spec.MemPerPE)
	b = appendStr(b, si.Spec.CPUType)
	b = appendF64(b, si.Spec.Speed)
	b = appendF64(b, si.Spec.CostRate)
	b = appendStr(b, si.Addr)
	b = appendU32(b, uint32(len(si.Apps)))
	for _, app := range si.Apps {
		b = appendStr(b, app)
	}
	b = appendStr(b, si.Home)
	return appendI64(b, si.UsedPE)
}

func appendServerInfos(b []byte, sis []ServerInfo) []byte {
	b = appendU32(b, uint32(len(sis)))
	for i := range sis {
		b = appendServerInfo(b, &sis[i])
	}
	return b
}

// --- reader ----------------------------------------------------------

// breader consumes a binary body front to back. The first short read or
// bounds violation latches err; subsequent reads return zero values, so
// decoders read straight through and check err once.
type breader struct {
	b   []byte
	err error
}

func (r *breader) fail() {
	if r.err == nil {
		r.err = ErrBinaryFrame
	}
	r.b = nil
}

func (r *breader) take(n int) []byte {
	if len(r.b) < n {
		r.fail()
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

func (r *breader) u8() byte {
	p := r.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

func (r *breader) u32() uint32 {
	p := r.take(4)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint32(p)
}

func (r *breader) u64() uint64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint64(p)
}

func (r *breader) i64() int      { return int(int64(r.u64())) }
func (r *breader) f64() float64  { return math.Float64frombits(r.u64()) }
func (r *breader) boolean() bool { return r.u8() != 0 }

// str reads a string into *dst. When the target already holds exactly
// the bytes on the wire it is left alone — the comparison does not
// allocate — so a reader that decodes into a value it has used before
// re-materialises only the strings that changed.
func (r *breader) str(dst *string) {
	n := r.u32()
	if uint64(n) > uint64(len(r.b)) {
		r.fail()
		return
	}
	if p := r.take(int(n)); *dst != string(p) {
		*dst = string(p)
	}
}

// count reads a repeated-group count, bounding it by the elements the
// bytes left could hold at minSize encoded bytes apiece, so a corrupt or
// hostile prefix cannot buy a slice many times the size of its frame.
func (r *breader) count(minSize int) int {
	n := r.u32()
	if uint64(n) > uint64(len(r.b)/minSize) {
		r.fail()
		return 0
	}
	return int(n)
}

// The least a repeated element occupies on the wire: empty strings are
// their 4-byte length, scalars 8 bytes.
const (
	minPhaseLen      = 4 + 5*8
	minServerInfoLen = 4 + 8 + 8 + 4 + 8 + 8 + 4 + 4 + 4 + 8
	minStrLen        = 4
)

// resized returns s with length n, reusing its backing array when that
// is large enough. An empty group decodes to nil, as it does into a zero
// value; the elements are the caller's to overwrite.
func resized[T any](s []T, n int) []T {
	switch {
	case n == 0:
		return nil
	case n <= cap(s):
		return s[:n]
	}
	return make([]T, n)
}

// contract reads an optional contract into c (and its Phases), or into a
// new one when c is nil, and returns it; nil when the frame carries none.
func (r *breader) contract(c *qos.Contract) *qos.Contract {
	if !r.boolean() {
		return nil
	}
	if c == nil {
		c = new(qos.Contract)
	}
	r.str(&c.App)
	c.MinPE = r.i64()
	c.MaxPE = r.i64()
	c.MemPerPE = r.i64()
	c.TotalMem = r.i64()
	c.Work = r.f64()
	c.EffMin = r.f64()
	c.EffMax = r.f64()
	c.Payoff.Soft = r.f64()
	c.Payoff.Hard = r.f64()
	c.Payoff.AtSoft = r.f64()
	c.Payoff.AtHard = r.f64()
	c.Payoff.Penalty = r.f64()
	c.Deadline = r.f64()
	c.Phases = resized(c.Phases, r.count(minPhaseLen))
	for i := range c.Phases {
		ph := &c.Phases[i]
		r.str(&ph.Name)
		ph.Work = r.f64()
		ph.MinPE = r.i64()
		ph.MaxPE = r.i64()
		ph.EffMin = r.f64()
		ph.EffMax = r.f64()
	}
	r.str(&c.Mechanism)
	return c
}

func (r *breader) serverInfo(si *ServerInfo) {
	r.str(&si.Spec.Name)
	si.Spec.NumPE = r.i64()
	si.Spec.MemPerPE = r.i64()
	r.str(&si.Spec.CPUType)
	si.Spec.Speed = r.f64()
	si.Spec.CostRate = r.f64()
	r.str(&si.Addr)
	si.Apps = resized(si.Apps, r.count(minStrLen))
	for i := range si.Apps {
		r.str(&si.Apps[i])
	}
	r.str(&si.Home)
	si.UsedPE = r.i64()
}

// serverInfos reads a listing into sis's storage and returns it.
func (r *breader) serverInfos(sis []ServerInfo) []ServerInfo {
	sis = resized(sis, r.count(minServerInfoLen))
	for i := range sis {
		r.serverInfo(&sis[i])
	}
	return sis
}

func (r *breader) bid(b *bidding.Bid) {
	r.str(&b.Server)
	b.Price = r.f64()
	b.Multiplier = r.f64()
	b.EstCompletion = r.f64()
	b.ExpiresAt = r.f64()
}

// done verifies the body was consumed exactly; trailing bytes mean a
// framing bug or corruption, not a forward-compatible extension (those
// get a new codec version).
func (r *breader) done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrBinaryFrame, len(r.b))
	}
	return nil
}

// binaryDecoder mirrors binaryAppender on the pointer receiver: the
// message decodes itself into the value the caller already holds. A
// decoder overwrites every field, so decoding into a used value and into
// a zero one give the same result; what it keeps of the old value is
// storage — a string equal to the wire's, a slice's capacity, a non-nil
// contract. After an error the target's contents are unspecified.
type binaryDecoder interface {
	decodeBinary(r *breader)
}

// decodeBinaryBody decodes a binary body of type typ into v, which must
// be a pointer to a message type with a binary encoding.
func decodeBinaryBody(typ string, data []byte, v any) error {
	m, ok := v.(binaryDecoder)
	if !ok {
		return fmt.Errorf("protocol: decode %s body: target %T has no binary decoder", typ, v)
	}
	// The reader is handed to an interface method, so a local one would
	// be a heap allocation per frame.
	r := breaders.Get().(*breader)
	r.b, r.err = data, nil
	m.decodeBinary(r)
	err := r.done()
	r.b = nil
	breaders.Put(r)
	if err != nil {
		return fmt.Errorf("protocol: decode %s body: %w", typ, err)
	}
	return nil
}

var breaders = sync.Pool{New: func() any { return new(breader) }}

func (m *ErrorBody) decodeBinary(r *breader) {
	r.str(&m.Message)
	m.Retryable = r.boolean()
}

func (m *BidReq) decodeBinary(r *breader) {
	r.str(&m.User)
	r.str(&m.Token)
	m.Contract = r.contract(m.Contract)
}

func (m *BidOK) decodeBinary(r *breader) { r.bid(&m.Bid) }

func (m *CommitReq) decodeBinary(r *breader) {
	r.str(&m.User)
	r.str(&m.Token)
	r.str(&m.JobID)
	r.bid(&m.Bid)
}

func (m *CommitOK) decodeBinary(r *breader) { r.str(&m.JobID) }

func (m *SubmitReq) decodeBinary(r *breader) {
	r.str(&m.User)
	r.str(&m.Token)
	r.str(&m.JobID)
	m.Contract = r.contract(m.Contract)
}

func (m *SubmitOK) decodeBinary(r *breader) { r.str(&m.JobID) }

func (m *SettleReq) decodeBinary(r *breader) {
	r.str(&m.JobID)
	r.str(&m.User)
	r.str(&m.Server)
	r.str(&m.HomeCluster)
	r.str(&m.App)
	m.MinPE = r.i64()
	m.MaxPE = r.i64()
	m.Price = r.f64()
	m.CPUSeconds = r.f64()
}

func (*SettleOK) decodeBinary(*breader)  {}
func (*PollReq) decodeBinary(*breader)   {}
func (*GossipReq) decodeBinary(*breader) {}

func (m *PollOK) decodeBinary(r *breader) {
	m.UsedPE = r.i64()
	m.QueueLen = r.i64()
	m.Running = r.i64()
}

func (m *VerifyReq) decodeBinary(r *breader) {
	r.str(&m.User)
	r.str(&m.Token)
}

func (m *VerifyOK) decodeBinary(r *breader) { r.str(&m.User) }

func (m *GossipOK) decodeBinary(r *breader) {
	m.Servers = r.serverInfos(m.Servers)
	m.Weather.Servers = r.i64()
	m.Weather.TotalPE = r.i64()
	m.Weather.UsedPE = r.i64()
	m.Weather.Contracts = r.i64()
	m.Weather.MeanMultiplier = r.f64()
}

func (m *ForwardSettleReq) decodeBinary(r *breader) { (*SettleReq)(m).decodeBinary(r) }

func (m *ListServersReq) decodeBinary(r *breader) {
	r.str(&m.Token)
	m.Contract = r.contract(m.Contract)
}

func (m *ListServersOK) decodeBinary(r *breader) { m.Servers = r.serverInfos(m.Servers) }

func (m *ASRegisterReq) decodeBinary(r *breader) {
	r.str(&m.JobID)
	r.str(&m.Owner)
	r.str(&m.Server)
	r.str(&m.App)
}

func (m *Telemetry) decodeBinary(r *breader) {
	r.str(&m.JobID)
	m.Time = r.f64()
	m.PEs = r.i64()
	m.Util = r.f64()
	m.Done = r.f64()
	r.str(&m.State)
	r.str(&m.Output)
}
