package daemon

import (
	"fmt"
	"os"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// wakeTimer is runLoop's timer: a CLOCK_MONOTONIC timerfd read through
// the netpoller, so its expiry wakes epoll_wait at once. A time.Timer
// fires when the runtime next looks at its timers, which an idle
// process does from epoll_wait's whole-millisecond timeout.
type wakeTimer struct {
	C  chan struct{} // one deep: an expiry not yet taken covers the next
	f  *os.File
	fd uintptr // f's, kept because f.Fd() would make it blocking
}

// newWakeTimer creates the timer disarmed and starts its reader, which
// wg counts until Close ends it.
func newWakeTimer(wg *sync.WaitGroup) (*wakeTimer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("daemon: timerfd_create: %w", errno)
	}
	t := &wakeTimer{C: make(chan struct{}, 1), f: os.NewFile(fd, "timerfd"), fd: fd}
	wg.Add(1)
	go func() {
		defer wg.Done()
		var expiries [8]byte
		for {
			if _, err := t.f.Read(expiries[:]); err != nil {
				return // Close
			}
			select {
			case t.C <- struct{}{}:
			default:
			}
		}
	}()
	return t, nil
}

// Reset arms the timer to fire once, d from now; d <= 0 fires at once
// (a zero it_value would disarm it).
func (t *wakeTimer) Reset(d time.Duration) { t.settime(max(d, 1)) }

// Stop disarms the timer and drops an expiry not yet taken. A Stop then
// Reset may deliver one stale expiry, read just before the Stop and sent
// after its drain, but never loses the new one.
func (t *wakeTimer) Stop() {
	t.settime(0)
	select {
	case <-t.C:
	default:
	}
}

// Close ends the reader. No method may be called after it.
func (t *wakeTimer) Close() { t.f.Close() }

func (t *wakeTimer) settime(d time.Duration) {
	spec := [2]syscall.Timespec{1: syscall.NsecToTimespec(int64(d))} // struct itimerspec: interval, value
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, t.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		panic("daemon: timerfd_settime: " + errno.Error())
	}
}
