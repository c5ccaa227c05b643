package central

// Admission control and load shedding. A Central Server under overload
// must refuse work early and cheaply instead of queueing every request
// until all of them time out (congestion collapse). Two policies apply,
// both gated on Server.MaxInflight > 0:
//
//   - An in-flight budget: at most MaxInflight auction/settlement
//     requests are processed concurrently. Settlements ride a priority
//     lane a quarter wider than the base budget, so money the daemons
//     already earned is booked even while new auctions are shed.
//   - Deadline triage: an auction whose hard QoS deadline is already
//     unmeetable on every live, matching server is refused immediately —
//     soliciting bids for it would burn fleet capacity on a job that can
//     only miss.
//
// Shed requests fail with protocol.MarkOverloaded: a typed, retryable
// wire error clients and daemon outboxes back off on and retry.

import (
	"fmt"
	"time"

	"faucets/internal/protocol"
	"faucets/internal/qos"
)

// noopRelease is handed out when admission control is disabled, so the
// happy path stays allocation-free.
var noopRelease = func() {}

// admit reserves one in-flight slot, returning the release that frees
// it. Priority requests may overshoot the base budget by a quarter.
func (s *Server) admit(priority bool) (func(), error) {
	limit := s.MaxInflight
	if limit <= 0 {
		return noopRelease, nil
	}
	budget := int64(limit)
	if priority {
		budget += int64(limit/4) + 1
	}
	if n := s.inflight.Add(1); n > budget {
		s.inflight.Add(-1)
		s.met.shedInflight.Inc()
		return nil, protocol.MarkOverloaded(
			fmt.Errorf("central: %d requests in flight (limit %d)", n-1, limit))
	}
	return func() { s.inflight.Add(-1) }, nil
}

// admitSettle admits a settlement on the priority lane.
func (s *Server) admitSettle() (func(), error) { return s.admit(true) }

// admitAuction admits a bid solicitation: deadline triage first, then
// the base in-flight budget.
func (s *Server) admitAuction(c *qos.Contract) (func(), error) {
	if s.MaxInflight > 0 && s.deadlineUnmeetable(c) {
		s.met.shedDeadline.Inc()
		return nil, protocol.MarkOverloaded(
			fmt.Errorf("central: job %q cannot meet its hard deadline %.0fs on any live server", c.App, c.HardDeadline()))
	}
	return s.admit(false)
}

// deadlineUnmeetable reports whether every live server matching the
// contract's static filters would miss the hard deadline even in the
// best case — the whole machine granted, up to the contract's MaxPE,
// at the machine's rated speed (wall time = Work / (p·Eff(p)·speed),
// §4). Conservative by construction: no hard deadline, or no live
// matching server at all, is not unmeetable — an empty directory is the
// auction's own failure mode and a rebooting grid must not shed
// everything it sees.
func (s *Server) deadlineUnmeetable(c *qos.Contract) bool {
	hard := c.HardDeadline()
	if hard <= 0 {
		return false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	now := time.Now()
	candidates := false
	for _, e := range s.registry {
		if !e.alive || now.Sub(e.lastSeen) > s.DeadAfter {
			continue
		}
		if !e.info.Matches(c) {
			continue
		}
		candidates = true
		pe := e.info.Spec.NumPE
		if pe > c.MaxPE {
			pe = c.MaxPE
		}
		if c.ExecTime(pe, e.info.Spec.Speed) <= hard {
			return false
		}
	}
	return candidates
}
