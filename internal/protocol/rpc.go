package protocol

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"time"
)

// This file is the robustness layer over the raw framing of framing.go:
// per-call deadlines so a hung peer cannot stall a caller forever, a
// dialer with a bounded connection attempt, and a jittered-backoff
// retry helper for idempotent calls. Every component that crosses the
// wire (FS poller, FD register/verify/settle, federation, client)
// routes its request/response exchanges through these helpers.

// DefaultCallTimeout bounds one RPC round trip (request write + reply
// read) when the caller does not configure a timeout of its own.
const DefaultCallTimeout = 5 * time.Second

// Observer receives the outcome of one RPC round trip (Pool) or of one
// handled request (Server): the request type, how long it took, and the
// error, nil on success. Implementations must be safe for concurrent
// use; telemetry.RPCMetrics is the standard one. A nil Observer is
// silently skipped, so call sites instrument unconditionally.
type Observer interface {
	ObserveRPC(reqType string, d time.Duration, err error)
}

// observe reports one finished exchange to obs, if any.
func observe(obs Observer, reqType string, start time.Time, err error) {
	if obs != nil {
		obs.ObserveRPC(reqType, time.Since(start), err)
	}
}

// Timeout resolves a config field's "zero means default" convention.
func Timeout(d time.Duration) time.Duration {
	if d > 0 {
		return d
	}
	return DefaultCallTimeout
}

// RemoteError is a failure reported by the peer: the request was
// delivered and refused. Unless Retryable is set, retrying the request
// unchanged cannot succeed. Retryable marks refusals whose cause is
// transient on the peer's side — a durability (WAL) failure, say — so
// the same request may well succeed later and outbox-style senders
// should keep it queued. Transport failures (dial, deadline, broken
// pipe) are never RemoteErrors.
type RemoteError struct {
	Message   string
	Retryable bool
}

func (e *RemoteError) Error() string {
	if e.Message == "" {
		return "protocol: unspecified remote error"
	}
	return "protocol: remote error: " + e.Message
}

// retryableMark wraps a server-side error whose cause is transient, so
// the TypeError frame written for it (WriteErrorFrom) carries
// Retryable=true.
type retryableMark struct{ err error }

func (m *retryableMark) Error() string { return m.err.Error() }
func (m *retryableMark) Unwrap() error { return m.err }

// MarkRetryable marks err as transient: the refusal written onto the
// wire tells the caller the same request may succeed later. Nil stays
// nil.
func MarkRetryable(err error) error {
	if err == nil {
		return nil
	}
	return &retryableMark{err: err}
}

// IsRetryable reports whether err (or anything it wraps) carries the
// retryable mark or is itself a retryable RemoteError.
func IsRetryable(err error) bool {
	var m *retryableMark
	if errors.As(err, &m) {
		return true
	}
	var remote *RemoteError
	return errors.As(err, &remote) && remote.Retryable
}

// overloadedPrefix tags a shed request on the wire. The typed
// OVERLOADED refusal rides inside ErrorBody.Message rather than a new
// field, so the hand-rolled binary ErrorBody layout stays two fields
// and a caller that does not classify it still sees a retryable remote
// error.
const overloadedPrefix = "OVERLOADED: "

// overloadedMark wraps a refusal caused by load shedding (admission
// control, deadline-unmeetable rejection). It prefixes the message so
// the classification survives the wire.
type overloadedMark struct{ err error }

func (m *overloadedMark) Error() string { return overloadedPrefix + m.err.Error() }
func (m *overloadedMark) Unwrap() error { return m.err }

// MarkOverloaded marks err as an overload shed: the refusal is typed
// OVERLOADED on the wire and is always retryable — the same request is
// expected to succeed once pressure drops. Nil stays nil.
func MarkOverloaded(err error) error {
	if err == nil {
		return nil
	}
	return MarkRetryable(&overloadedMark{err: err})
}

// IsOverloaded reports whether err is a shed-by-overload refusal,
// either locally marked (MarkOverloaded) or received over the wire as
// a RemoteError carrying the OVERLOADED prefix.
func IsOverloaded(err error) bool {
	var m *overloadedMark
	if errors.As(err, &m) {
		return true
	}
	var remote *RemoteError
	return errors.As(err, &remote) && strings.HasPrefix(remote.Message, overloadedPrefix)
}

// notOwnerPrefix tags a request that reached the wrong shard of a
// sharded Central Server mesh. Like OVERLOADED, the classification
// rides inside ErrorBody.Message — "NOT_OWNER <addr>: <cause>" — so the
// binary ErrorBody layout is unchanged. The embedded address is the
// owning shard, letting clients refresh their shard map and redirect.
const notOwnerPrefix = "NOT_OWNER "

// notOwnerMark wraps a refusal from a non-owning shard, carrying the
// owner's address for the redirect.
type notOwnerMark struct {
	err   error
	owner string
}

func (m *notOwnerMark) Error() string { return notOwnerPrefix + m.owner + ": " + m.err.Error() }
func (m *notOwnerMark) Unwrap() error { return m.err }

// MarkNotOwner marks err as a wrong-shard refusal redirecting to owner.
// Deliberately NOT retryable: resending the identical request to the
// same shard cannot succeed — the caller must redirect. Nil stays nil.
func MarkNotOwner(err error, owner string) error {
	if err == nil {
		return nil
	}
	return &notOwnerMark{err: err, owner: owner}
}

// NotOwnerAddr extracts the owning shard's address from a wrong-shard
// refusal, locally marked or received over the wire. ok is false when
// err is not a NOT_OWNER refusal.
func NotOwnerAddr(err error) (owner string, ok bool) {
	var m *notOwnerMark
	if errors.As(err, &m) {
		return m.owner, true
	}
	var remote *RemoteError
	if !errors.As(err, &remote) || !strings.HasPrefix(remote.Message, notOwnerPrefix) {
		return "", false
	}
	rest := remote.Message[len(notOwnerPrefix):]
	i := strings.Index(rest, ": ")
	if i <= 0 {
		return "", false
	}
	return rest[:i], true
}

// Dial connects to addr within timeout (zero = DefaultCallTimeout).
func Dial(addr string, timeout time.Duration) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, Timeout(timeout))
}

// CallTimeout performs Call under an absolute deadline covering both
// the request write and the reply read, then clears the deadline so the
// connection can be reused. A peer that accepts the connection but
// never answers costs the caller at most timeout.
func CallTimeout(conn net.Conn, timeout time.Duration, reqType string, req any, wantReply string, reply any) error {
	if err := conn.SetDeadline(time.Now().Add(Timeout(timeout))); err != nil {
		return fmt.Errorf("protocol: set deadline: %w", err)
	}
	defer conn.SetDeadline(time.Time{})
	return Call(conn, reqType, req, wantReply, reply)
}

// DialCall is the one-shot exchange most components need: dial, one
// deadline-bounded round trip, close.
func DialCall(addr string, timeout time.Duration, reqType string, req any, wantReply string, reply any) error {
	conn, err := Dial(addr, timeout)
	if err != nil {
		return err
	}
	defer conn.Close()
	return CallTimeout(conn, timeout, reqType, req, wantReply, reply)
}

// Retry runs an idempotent operation with jittered exponential backoff.
// The zero value is usable: 3 attempts, 50ms base, 2s cap.
type Retry struct {
	// Attempts is the total number of tries (default 3).
	Attempts int
	// Base is the backoff before the second attempt (default 50ms).
	Base time.Duration
	// Max caps the backoff between attempts (default 2s).
	Max time.Duration
	// Stop aborts the wait between attempts when closed (optional).
	Stop <-chan struct{}
}

func (r Retry) attempts() int {
	if r.Attempts > 0 {
		return r.Attempts
	}
	return 3
}

// Delay returns the jittered backoff after failed attempt n (0-based):
// exponential growth from Base, multiplied by a random factor in
// [0.5, 1.5), and never above Max.
func (r Retry) Delay(n int) time.Duration {
	base := r.Base
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	max := r.Max
	if max <= 0 {
		max = 2 * time.Second
	}
	d := max
	// The shift overflows past ~30 doublings; by then we are at the cap
	// anyway.
	if n < 30 {
		if grown := base << uint(n); grown > 0 && grown < max {
			d = grown
		}
	}
	d = time.Duration(float64(d) * (0.5 + rand.Float64()))
	if d > max {
		d = max
	}
	return d
}

// Do runs f until it succeeds, attempts are exhausted, or Stop closes,
// and returns the last error. A *RemoteError aborts immediately: the
// peer received the request and refused it, so an unchanged retry
// cannot succeed. Only use Do for idempotent calls.
func (r Retry) Do(f func() error) error {
	var err error
	attempts := r.attempts()
	for i := 0; i < attempts; i++ {
		if err = f(); err == nil {
			return nil
		}
		var remote *RemoteError
		if errors.As(err, &remote) {
			return err
		}
		if i == attempts-1 {
			break
		}
		// time.NewTimer rather than time.After: a stopped timer frees
		// immediately instead of leaking until it fires.
		backoff := time.NewTimer(r.Delay(i))
		select {
		case <-r.Stop:
			backoff.Stop()
			return err
		case <-backoff.C:
		}
	}
	return err
}
