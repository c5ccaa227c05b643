// Package protocol defines the wire protocol spoken between the Faucets
// components (paper Fig 1): Faucets Client ↔ Faucets Central Server,
// Client ↔ Faucets Daemon, Daemon ↔ Central Server, Daemon ↔ AppSpector,
// and Client ↔ AppSpector.
//
// Frames are length-prefixed: a 4-byte big-endian payload length
// followed by the payload in one of two shapes. The hot auction-path
// message types (see binary.go) always travel in a compact binary
// encoding; every other type is a JSON object {"type": ..., "body":
// ...}. The payload's first byte says which, so readers handle the
// mixed stream statelessly and no connection carries codec state.
// Length-prefixing (rather than newline-delimiting) keeps file-staging
// payloads and embedded output text unconstrained.
package protocol

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
)

// MaxFrame bounds a single frame (16 MiB): large enough for a staging
// chunk, small enough to stop a corrupt length prefix from allocating
// the moon.
const MaxFrame = 16 << 20

// maxPooledBuf caps the encode buffers kept in the write pool; a rare
// huge frame (file staging) should not pin megabytes per P forever.
const maxPooledBuf = 64 << 10

// Frame is one protocol message. ID correlates pipelined
// request/response pairs on a shared connection: a pooled caller stamps
// each request with a connection-unique ID and the server echoes it on
// the reply, so multiple in-flight calls can demultiplex answers from
// one stream. One-shot exchanges stamp a process-unique ID for the same
// reason (stale-reply detection, see Call).
type Frame struct {
	ID   uint64          `json:"id,omitempty"`
	Type string          `json:"type"`
	Body json.RawMessage `json:"body,omitempty"`

	// codec records which encoding Body uses (CodecJSON or CodecBinary)
	// so Decode picks the right parser.
	codec uint8
}

// Codec reports the encoding the frame arrived in.
func (f Frame) Codec() uint8 { return f.codec }

// Framing errors.
var (
	ErrFrameTooBig = errors.New("protocol: frame exceeds MaxFrame")
	ErrBadType     = errors.New("protocol: unexpected frame type")
	// ErrEmptyBody rejects a reply whose type requires fields but whose
	// body is missing — a zero-valued struct must not impersonate data.
	ErrEmptyBody = errors.New("protocol: empty frame body")
)

// IDMismatchError reports a reply frame whose ID does not match the
// request it should answer — the signature of a stale reply left on a
// reused connection by a timed-out earlier call.
type IDMismatchError struct {
	Want, Got uint64
}

func (e *IDMismatchError) Error() string {
	return fmt.Sprintf("protocol: reply frame ID mismatch: got %d, want %d", e.Got, e.Want)
}

// allowEmptyBody lists the frame types whose bodies are legitimately
// field-free, so an absent body decodes to their zero value. Every other
// type carries required fields and an empty body is a protocol error.
var allowEmptyBody = map[string]bool{
	TypeError:      true, // diagnostic: a bare error frame still signals failure
	TypeRegisterOK: true,
	TypePollReq:    true,
	TypeSettleOK:   true,
	TypeWeatherReq: true,
	TypeWatchEnd:   true,
	TypeGossipReq:  true,
}

// writeBufPool recycles frame encode buffers so the steady-state hot
// path allocates nothing for framing.
var writeBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// WriteFrame encodes body and writes a framed message to w as a single
// Write call, so frames from writers not sharing a mutex never
// interleave and each frame leaves in one segment. When w is a
// *ReplyConn (the server side), the frame echoes the in-flight
// request's ID so pipelined callers can match the reply to their
// request.
func WriteFrame(w io.Writer, typ string, body any) error {
	id := uint64(0)
	if rc, ok := w.(*ReplyConn); ok {
		id = rc.id
	}
	return writeFrame(w, id, typ, body)
}

// writeFrame encodes the frame into a pooled buffer and writes it with
// one Write call.
func writeFrame(w io.Writer, id uint64, typ string, body any) error {
	bp := writeBufPool.Get().(*[]byte)
	buf, err := AppendFrame((*bp)[:0], CodecBinary, id, typ, body)
	if err == nil {
		if _, werr := w.Write(buf); werr != nil {
			err = fmt.Errorf("protocol: write frame: %w", werr)
		}
	}
	putWriteBuf(bp, buf)
	return err
}

// putWriteBuf returns an encode buffer, as grown, to the write pool.
func putWriteBuf(bp *[]byte, buf []byte) {
	if cap(buf) <= maxPooledBuf {
		*bp = buf[:0]
		writeBufPool.Put(bp)
	}
}

// AppendFrame appends one complete frame — length prefix included — to
// dst and returns the extended slice. With CodecBinary — what every
// sender in the system passes — types that have a binary encoding use
// it and everything else is a JSON frame; CodecJSON writes the JSON
// shape for any type, which readers accept just the same. The append
// style lets hot paths encode into reused buffers with zero per-frame
// allocations.
func AppendFrame(dst []byte, codec uint8, id uint64, typ string, body any) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length back-patched below
	encoded := false
	if codec >= CodecBinary {
		if code, known := binCodeOf[typ]; known {
			mark := len(dst)
			dst = append(dst, binMagic, CodecBinary, code)
			dst = appendU64(dst, id)
			if out, ok := appendBinaryBody(dst, body); ok {
				dst, encoded = out, true
			} else {
				dst = dst[:mark] // body value has no binary encoder: JSON
			}
		}
	}
	if !encoded {
		var err error
		if dst, err = appendJSONFrame(dst, id, typ, body); err != nil {
			return dst[:start], err
		}
	}
	n := len(dst) - start - 4
	if n > MaxFrame {
		return dst[:start], fmt.Errorf("%w: %d bytes", ErrFrameTooBig, n)
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(n))
	return dst, nil
}

// appendJSONFrame assembles the {"id","type","body"} envelope by hand —
// one json.Marshal for the body instead of the old body-then-envelope
// double encode.
func appendJSONFrame(dst []byte, id uint64, typ string, body any) ([]byte, error) {
	dst = append(dst, '{')
	if id != 0 {
		dst = append(dst, `"id":`...)
		dst = strconv.AppendUint(dst, id, 10)
		dst = append(dst, ',')
	}
	dst = append(dst, `"type":`...)
	dst = appendJSONString(dst, typ)
	if body != nil {
		dst = append(dst, `,"body":`...)
		raw, err := json.Marshal(body)
		if err != nil {
			return dst, fmt.Errorf("protocol: marshal %s: %w", typ, err)
		}
		dst = append(dst, raw...)
	}
	return append(dst, '}'), nil
}

// appendJSONString quotes s as a JSON string. The protocol's type names
// are plain ASCII, so the fast path is a straight copy; anything needing
// escapes takes the encoding/json path.
func appendJSONString(dst []byte, s string) []byte {
	plain := true
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' {
			plain = false
			break
		}
	}
	if plain {
		dst = append(dst, '"')
		dst = append(dst, s...)
		return append(dst, '"')
	}
	raw, err := json.Marshal(s)
	if err != nil { // unreachable: strings always marshal
		return append(dst, `""`...)
	}
	return append(dst, raw...)
}

// ReadFrame reads one framed message from r — exactly its bytes, so r
// can be used again afterwards — into a fresh payload buffer that is
// safe to hand across goroutines. Loops that own a connection and
// consume each frame before reading the next (the handlers, the pool's
// read loop) use FrameReader, which reads ahead and reuses its buffer.
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, err // preserve io.EOF for clean-shutdown detection
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return Frame{}, fmt.Errorf("%w: %d bytes", ErrFrameTooBig, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return Frame{}, fmt.Errorf("protocol: read payload: %w", err)
	}
	return parsePayload(payload)
}

// parsePayload decodes one frame payload, sniffing the codec from the
// first byte: JSON frames always open with '{', binary frames with
// binMagic (never a legal first byte of JSON).
func parsePayload(payload []byte) (Frame, error) {
	if len(payload) > 0 && payload[0] == binMagic {
		if len(payload) < binHeaderLen {
			return Frame{}, fmt.Errorf("%w: truncated header (%d bytes)", ErrBinaryFrame, len(payload))
		}
		if v := payload[1]; v != CodecBinary {
			return Frame{}, fmt.Errorf("%w: unsupported codec version %d", ErrBinaryFrame, v)
		}
		code := payload[2]
		var typ string
		if int(code) < len(binTypeOf) {
			typ = binTypeOf[code]
		}
		if typ == "" {
			return Frame{}, fmt.Errorf("%w: unknown type code %d", ErrBinaryFrame, code)
		}
		return Frame{
			ID:    binary.BigEndian.Uint64(payload[3:11]),
			Type:  typ,
			Body:  payload[binHeaderLen:],
			codec: CodecBinary,
		}, nil
	}
	var f Frame
	if err := json.Unmarshal(payload, &f); err != nil {
		return Frame{}, fmt.Errorf("protocol: decode frame: %w", err)
	}
	return f, nil
}

// FrameReader reads frames from one connection through a single reused
// buffer. Header and payload come out of the same Read, so a frame that
// left as one Write costs one read(2), and a loop that fully consumes
// each frame before calling Next again pays no per-frame allocation. It
// reads ahead, so it must own the read side of r. The returned Frame's
// Body may alias the buffer and is valid only until the next call to
// Next; anything retained past that must be copied.
type FrameReader struct {
	r    io.Reader
	buf  []byte // reused backing store
	data []byte // read from r, not yet returned: a window of buf
}

// frameReaderBuf is a FrameReader's starting buffer: several auction
// frames, or a directory listing of a few dozen servers.
const frameReaderBuf = 4096

// NewFrameReader wraps r for buffered, buffer-reusing frame reads.
func NewFrameReader(r io.Reader) *FrameReader { return &FrameReader{r: r} }

// Next reads and parses the next frame.
func (fr *FrameReader) Next() (Frame, error) {
	if len(fr.data) == 0 {
		fr.data = fr.buf[:0] // drained: the next Read gets the whole buffer
	}
	if err := fr.fill(4); err != nil {
		if err == io.EOF && len(fr.data) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err // a bare io.EOF between frames is a clean shutdown
	}
	n := int(binary.BigEndian.Uint32(fr.data))
	if n > MaxFrame {
		return Frame{}, fmt.Errorf("%w: %d bytes", ErrFrameTooBig, n)
	}
	if keep := max(4+n, len(fr.data), frameReaderBuf); len(fr.buf) > maxPooledBuf && keep <= maxPooledBuf {
		// A rare huge frame (file staging) grew the buffer; a connection
		// back to small frames must not pin those megabytes.
		fr.buf = make([]byte, keep)
		fr.data = fr.buf[:copy(fr.buf, fr.data)]
	}
	if err := fr.fill(4 + n); err != nil {
		return Frame{}, fmt.Errorf("protocol: read payload: %w", err)
	}
	payload := fr.data[4 : 4+n]
	fr.data = fr.data[4+n:]
	return parsePayload(payload)
}

// fill reads until at least need bytes are buffered, first moving the
// window to the front of a buffer that can hold them if it cannot grow
// that far where it sits.
func (fr *FrameReader) fill(need int) error {
	if len(fr.data) >= need {
		return nil
	}
	if cap(fr.data) < need {
		if len(fr.buf) < need {
			fr.buf = make([]byte, max(need, frameReaderBuf))
		}
		fr.data = fr.buf[:copy(fr.buf, fr.data)]
	}
	n, err := io.ReadAtLeast(fr.r, fr.data[len(fr.data):cap(fr.data)], need-len(fr.data))
	fr.data = fr.data[:len(fr.data)+n]
	return err
}

// Decode unmarshals a frame body into v, checking the frame type first.
// An empty body is accepted only for the field-free types in
// allowEmptyBody; for anything else it reports ErrEmptyBody rather than
// letting a zero-valued struct flow onward as real data.
//
// v may be a value the caller has decoded into before: either codec
// leaves it exactly as a decode into a zero value would, and the binary
// one reuses its storage (see binaryDecoder). After an error v's
// contents are unspecified.
func Decode(f Frame, wantType string, v any) error {
	if f.Type != wantType {
		return fmt.Errorf("%w: got %q, want %q", ErrBadType, f.Type, wantType)
	}
	if v == nil {
		return nil
	}
	if len(f.Body) == 0 {
		if allowEmptyBody[f.Type] {
			return nil
		}
		return fmt.Errorf("%w: %s requires fields", ErrEmptyBody, f.Type)
	}
	if f.codec == CodecBinary {
		return decodeBinaryBody(f.Type, f.Body, v)
	}
	// json.Unmarshal merges into what v holds: a field the frame omits
	// (omitempty) would keep a reused target's previous value.
	if rv := reflect.ValueOf(v); rv.Kind() == reflect.Pointer && !rv.IsNil() {
		rv.Elem().SetZero()
	}
	if err := json.Unmarshal(f.Body, v); err != nil {
		return fmt.Errorf("protocol: decode %s body: %w", f.Type, err)
	}
	return nil
}

// oneShotID stamps one-shot Call requests with process-unique IDs so a
// stale reply left on a reused connection can be detected.
var oneShotID atomic.Uint64

// Call writes a request frame and reads the reply, decoding it into
// reply if the reply type matches wantReply. It is the client-side
// helper for every simple request/response exchange in the system. The
// request carries a unique frame ID; a reply carrying any other ID —
// zero included — is not the answer to this request (typically a stale
// answer to an earlier one) and fails with *IDMismatchError instead of
// being silently accepted.
func Call(rw io.ReadWriter, reqType string, req any, wantReply string, reply any) error {
	id := oneShotID.Add(1)
	if err := writeFrame(rw, id, reqType, req); err != nil {
		return err
	}
	f, err := ReadFrame(rw)
	if err != nil {
		return err
	}
	if f.ID != id {
		return &IDMismatchError{Want: id, Got: f.ID}
	}
	return decodeReply(f, wantReply, reply)
}

// decodeReply is the reply half of an exchange: a TypeError frame
// becomes a *RemoteError, anything else must be wantReply.
func decodeReply(f Frame, wantReply string, reply any) error {
	if f.Type == TypeError {
		var e ErrorBody
		_ = Decode(f, TypeError, &e)
		return &RemoteError{Message: e.Message, Retryable: e.Retryable}
	}
	return Decode(f, wantReply, reply)
}

// WriteError sends a TypeError frame describing a failure.
func WriteError(w io.Writer, msg string) error {
	return WriteFrame(w, TypeError, ErrorBody{Message: msg})
}

// WriteErrorFrom sends a TypeError frame for err, carrying the
// retryable mark (see MarkRetryable) onto the wire.
func WriteErrorFrom(w io.Writer, err error) error {
	return WriteFrame(w, TypeError, ErrorBody{Message: err.Error(), Retryable: IsRetryable(err)})
}

// ReplyConn wraps a server-side connection so reply frames echo the ID
// of the request being answered. A handler loop calls SetID with each
// request frame's ID before dispatching; WriteFrame stamps it on every
// reply. Handler loops are single-goroutine per connection, so no
// synchronization is needed.
type ReplyConn struct {
	io.ReadWriter
	id uint64
}

// NewReplyConn wraps rw for ID-stamped replies.
func NewReplyConn(rw io.ReadWriter) *ReplyConn { return &ReplyConn{ReadWriter: rw} }

// SetID records the in-flight request's ID for the next replies.
func (rc *ReplyConn) SetID(id uint64) { rc.id = id }
