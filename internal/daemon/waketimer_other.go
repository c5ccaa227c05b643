//go:build !linux

package daemon

import (
	"sync"
	"time"
)

// wakeTimer is runLoop's timer; off Linux, a time.Timer.
type wakeTimer struct {
	C <-chan time.Time
	t *time.Timer
}

// newWakeTimer creates the timer disarmed. It has no reader for wg.
func newWakeTimer(*sync.WaitGroup) (*wakeTimer, error) {
	t := time.NewTimer(maxSleep)
	t.Stop()
	return &wakeTimer{C: t.C, t: t}, nil
}

// Reset arms the timer to fire once, d from now; d <= 0 fires at once.
func (w *wakeTimer) Reset(d time.Duration) { w.t.Reset(d) }

// Stop disarms the timer and drops an expiry not yet taken: go.mod
// predates Go 1.23's timer channels, so a Reset must follow a Stop and a
// drain, or a stale fire is delivered after it.
func (w *wakeTimer) Stop() {
	if !w.t.Stop() {
		select {
		case <-w.C:
		default:
		}
	}
}

// Close stops the timer. No method may be called after it.
func (w *wakeTimer) Close() { w.t.Stop() }
