// Package health implements adaptive per-address failure detection and
// circuit breaking for the grid's RPC fabric.
//
// Each remote address gets a Breaker holding a phi-accrual-style
// suspicion score: transport errors add whole points, successes that
// arrive far outside the address's own smoothed latency envelope add
// half points (the gray-failure signal — a daemon that still answers
// but has become pathologically slow), and healthy responses decay the
// score multiplicatively. When suspicion crosses Threshold the breaker
// OPENs: callers skip the address outright instead of paying a timeout
// per call. After Cooldown the breaker admits a single HALF-OPEN probe;
// the probe's outcome either closes the breaker or re-arms the
// cooldown.
//
// The happy path (CLOSED breaker, healthy response) is allocation-free:
// Allow, Healthy, and Record perform only a read-locked map lookup,
// a per-breaker mutex, and float arithmetic.
package health

import (
	"sync"
	"time"
)

// State is a breaker's position in the CLOSED → OPEN → HALF-OPEN cycle.
type State int32

const (
	// Closed: the address is healthy; calls flow normally.
	Closed State = iota
	// Open: suspicion crossed the threshold; calls are refused until
	// the cooldown elapses.
	Open
	// HalfOpen: the cooldown elapsed; exactly one probe call is allowed
	// through to decide whether the address has recovered.
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "unknown"
}

// Defaults applied by Options when a field is zero.
const (
	DefaultThreshold = 4.0
	DefaultCooldown  = 2 * time.Second
)

const (
	// decay multiplies the suspicion score on every healthy response.
	decay = 0.5
	// latencyFactor: a success slower than latencyFactor × (EWMA mean +
	// EWMA deviation) counts as a half-point of suspicion. This is the
	// adaptive, per-address part of the detector — expectations are
	// learned from the address's own history, not configured.
	latencyFactor = 4.0
)

// Options tunes a breaker Set. The zero value is usable: every field
// falls back to the package default.
type Options struct {
	// Threshold is the suspicion score at which a breaker opens. Each
	// transport error adds 1; each pathologically slow success adds
	// 0.5.
	Threshold float64
	// Cooldown is how long an OPEN breaker refuses calls before
	// admitting a half-open probe.
	Cooldown time.Duration
	// Now overrides the clock (tests). Nil means time.Now.
	Now func() time.Time
}

func (o *Options) threshold() float64 {
	if o.Threshold > 0 {
		return o.Threshold
	}
	return DefaultThreshold
}

func (o *Options) cooldown() time.Duration {
	if o.Cooldown > 0 {
		return o.Cooldown
	}
	return DefaultCooldown
}

func (o *Options) now() time.Time {
	if o.Now != nil {
		return o.Now()
	}
	return time.Now()
}

// Breaker is the failure detector for one remote address.
type Breaker struct {
	mu      sync.Mutex
	state   State
	score   float64
	retryAt time.Time // when an OPEN breaker may admit a probe
	probing bool      // a half-open probe is in flight

	// Latency EWMA: the address's learned response-time envelope.
	mean    float64 // seconds
	dev     float64 // mean absolute deviation, seconds
	samples int64
}

const ewmaAlpha = 0.2

// latencyFloor is the fastest answer that can count as pathologically
// slow. The envelope is learned from the address's own history, and a
// peer that answers in tens of microseconds, steadily, teaches one so
// tight that a GC cycle or a descheduled thread on either side — a few
// consecutive answers near a millisecond — would open the breaker on a
// healthy peer. A gray failure worth forfeiting costs far more.
const latencyFloor = 5 * time.Millisecond

func (b *Breaker) openLocked(o *Options, now time.Time) {
	b.state = Open
	b.probing = false
	b.retryAt = now.Add(o.cooldown())
}

// allow reports whether a call may proceed, claiming the half-open
// probe slot when the cooldown has elapsed.
func (b *Breaker) allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		if now.Before(b.retryAt) {
			return false
		}
		b.state = HalfOpen
		b.probing = true
		return true
	default: // HalfOpen
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// healthy is the non-claiming form of allow: true when a call to the
// address is worth launching right now. It never claims the probe
// slot, so gating a fan-out on healthy leaves the actual probe
// admission to allow.
func (b *Breaker) healthy(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		return !now.Before(b.retryAt)
	default:
		return !b.probing
	}
}

// record feeds one call outcome into the detector.
func (b *Breaker) record(o *Options, now time.Time, d time.Duration, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err != nil {
		b.score++
		switch {
		case b.state == HalfOpen:
			// Failed probe: back to OPEN for another cooldown.
			b.openLocked(o, now)
		case b.state == Closed && b.score >= o.threshold():
			b.openLocked(o, now)
		case b.state == Open:
			// Straggler failure from before the trip; the cooldown is
			// already running.
		}
		return
	}

	sec := d.Seconds()
	if b.samples > 0 && d >= latencyFloor && sec > latencyFactor*(b.mean+b.dev) {
		// Answered, but far outside its own envelope: gray failure.
		// The sample is NOT folded into the EWMA — a daemon that turns
		// pathologically slow must not drag its own baseline up until
		// the slowness stops looking suspicious.
		b.score += 0.5
	} else {
		b.score *= decay
		if b.samples == 0 {
			b.mean = sec
		} else {
			diff := sec - b.mean
			if diff < 0 {
				diff = -diff
			}
			b.dev = (1-ewmaAlpha)*b.dev + ewmaAlpha*diff
			b.mean = (1-ewmaAlpha)*b.mean + ewmaAlpha*sec
		}
		b.samples++
	}

	switch {
	case b.state == HalfOpen:
		// Probe succeeded: full reset.
		b.state = Closed
		b.probing = false
		b.score = 0
	case b.state == Closed && b.score >= o.threshold():
		// Latency degradation alone can trip the breaker.
		b.openLocked(o, now)
	case b.state == Open:
		// Straggler success from before the trip; only the probe may
		// close an open breaker.
	}
}

// Set is a collection of Breakers keyed by remote address. It
// implements protocol.HealthPolicy.
type Set struct {
	opts Options
	mu   sync.RWMutex
	m    map[string]*Breaker
}

// NewSet builds a breaker set with the given options.
func NewSet(opts Options) *Set {
	return &Set{opts: opts, m: make(map[string]*Breaker)}
}

func (s *Set) breaker(addr string) *Breaker {
	s.mu.RLock()
	b := s.m[addr]
	s.mu.RUnlock()
	if b != nil {
		return b
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if b = s.m[addr]; b == nil {
		b = &Breaker{}
		s.m[addr] = b
	}
	return b
}

// Allow reports whether a call to addr may proceed, claiming the
// half-open probe slot if the breaker's cooldown has elapsed. Callers
// that get true MUST follow up with Record so a claimed probe resolves.
func (s *Set) Allow(addr string) bool {
	return s.breaker(addr).allow(s.opts.now())
}

// Healthy reports whether addr is worth including in a fan-out right
// now, without claiming the probe slot. False means the breaker is
// OPEN (cooldown running) or a half-open probe is already in flight.
func (s *Set) Healthy(addr string) bool {
	return s.breaker(addr).healthy(s.opts.now())
}

// Record feeds one call outcome into addr's detector. A nil err is a
// success; d is the observed call latency. Callers should report
// application-level refusals (the peer answered, however unhappily) as
// success — only transport failures indict the address.
func (s *Set) Record(addr string, d time.Duration, err error) {
	s.breaker(addr).record(&s.opts, s.opts.now(), d, err)
}

// State returns addr's current breaker state (Closed for unknown
// addresses).
func (s *Set) State(addr string) State {
	s.mu.RLock()
	b := s.m[addr]
	s.mu.RUnlock()
	if b == nil {
		return Closed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
