package central

// Brownout mode: graceful degradation under durability-layer pressure.
// When the WAL reports distress — fsync latency climbing, group-commit
// queue deepening — the Central Server trades freshness for headroom
// instead of falling over:
//
//   - Weather is served from the stale TTL cache (up to
//     brownoutWeatherFactor × WeatherTTL old) so bursts of pricing reads
//     stop triggering fleet scans.
//   - The WAL group-commit window widens (4×, at least 5ms) so each
//     fsync amortizes across more settlements.
//
// Directory reads have nothing to shed: they merge the gossip cache and
// dial no peer (federation.go). Peer credential verification is never
// degraded — auth must stay exact.
//
// Every degradation is a freshness trade, never a correctness one:
// settlements remain exactly-once and durably acknowledged.

import (
	"log"
	"time"
)

const (
	// brownoutWeatherFactor multiplies WeatherTTL while browned out: the
	// cached report is served until it is this many TTLs old.
	brownoutWeatherFactor = 20
	// brownoutCalmTicks is the exit hysteresis: pressure must sit below
	// HALF the enter thresholds for this many consecutive monitor ticks
	// before brownout lifts, so a flapping disk doesn't toggle the mode
	// every tick.
	brownoutCalmTicks = 3
	// brownoutMinWindow floors the widened group-commit window when the
	// configured window is zero or tiny.
	brownoutMinWindow = 5 * time.Millisecond
	// DefaultBrownoutInterval is the monitor cadence when none is given.
	DefaultBrownoutInterval = 250 * time.Millisecond
)

// Brownout reports whether the server is currently browned out.
func (s *Server) Brownout() bool { return s.brownout.Load() }

// SetBrownout forces brownout mode on or off. The monitor calls this;
// it is exported so operators (and tests) can engage degradation by
// hand ahead of planned disk maintenance.
func (s *Server) SetBrownout(on bool) {
	s.brownoutMu.Lock()
	defer s.brownoutMu.Unlock()
	if on == s.brownout.Load() {
		return
	}
	if on {
		s.savedWindow = s.DB.GroupWindow()
		w := 4 * s.savedWindow
		if w < brownoutMinWindow {
			w = brownoutMinWindow
		}
		s.DB.SetGroupWindow(w)
		s.brownout.Store(true)
		s.met.brownoutOn.Set(1)
	} else {
		s.DB.SetGroupWindow(s.savedWindow)
		s.brownout.Store(false)
		s.met.brownoutOn.Set(0)
	}
	s.met.brownoutTrans.Inc()
	log.Printf("central: brownout %v (group window %v)", on, s.DB.GroupWindow())
}

// StartBrownoutMonitor launches the pressure watcher: every interval it
// samples db.Pressure and engages brownout when fsync latency exceeds
// BrownoutFsync or the commit queue exceeds BrownoutQueue. Exit requires
// brownoutCalmTicks consecutive samples below half of both thresholds.
// A no-op unless at least one threshold is configured.
func (s *Server) StartBrownoutMonitor(interval time.Duration) {
	if s.BrownoutFsync <= 0 && s.BrownoutQueue <= 0 {
		return
	}
	if interval <= 0 {
		interval = DefaultBrownoutInterval
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		calm := 0
		for {
			select {
			case <-s.closed:
				return
			case <-ticker.C:
				p := s.DB.Pressure()
				over := (s.BrownoutFsync > 0 && p.SyncEWMA > s.BrownoutFsync) ||
					(s.BrownoutQueue > 0 && p.QueueDepth > s.BrownoutQueue)
				if over {
					calm = 0
					s.SetBrownout(true)
					continue
				}
				if !s.Brownout() {
					continue
				}
				settled := (s.BrownoutFsync <= 0 || p.SyncEWMA <= s.BrownoutFsync/2) &&
					(s.BrownoutQueue <= 0 || p.QueueDepth <= s.BrownoutQueue/2)
				if !settled {
					calm = 0
					continue
				}
				if calm++; calm >= brownoutCalmTicks {
					s.SetBrownout(false)
					calm = 0
				}
			}
		}
	}()
}
