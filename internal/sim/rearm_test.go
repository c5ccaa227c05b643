package sim

import (
	"errors"
	"testing"
)

// refEngine is the reference Rearm must match: a pending list searched
// linearly, where re-arming an event is Cancel followed by a fresh At.
type refEngine struct {
	now     Time
	seq     uint64
	pending []refEvent
}

type refEvent struct {
	at   Time
	prio int
	seq  uint64
	ev   *Event // the engine-under-test event this entry stands for
}

func (r *refEngine) cancel(ev *Event) {
	for i, p := range r.pending {
		if p.ev == ev {
			r.pending = append(r.pending[:i], r.pending[i+1:]...)
			return
		}
	}
}

func (r *refEngine) at(t Time, prio int, ev *Event) {
	r.pending = append(r.pending, refEvent{at: t, prio: prio, seq: r.seq, ev: ev})
	r.seq++
}

func (r *refEngine) step() *Event {
	if len(r.pending) == 0 {
		return nil
	}
	best := 0
	for i, p := range r.pending {
		b := r.pending[best]
		if p.at < b.at || p.at == b.at && (p.prio < b.prio || p.prio == b.prio && p.seq < b.seq) {
			best = i
		}
	}
	p := r.pending[best]
	r.pending = append(r.pending[:best], r.pending[best+1:]...)
	r.now = p.at
	return p.ev
}

// panicsPast runs f and reports whether it panicked with ErrPast.
func panicsPast(f func()) (past bool) {
	defer func() {
		err, _ := recover().(error)
		past = errors.Is(err, ErrPast)
	}()
	f()
	return false
}

// TestRearmMatchesCancelThenAt drives random At/AtPriority/Cancel/Rearm/
// Step sequences through the engine and through refEngine. Rearm covers
// zero, pending, fired and cancelled events and times in the past; after
// every operation both must agree on which events are pending, and every
// Step must fire the same event at the same time.
func TestRearmMatchesCancelThenAt(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		rng := NewRNG(seed)
		e, ref := NewEngine(), &refEngine{}
		var got *Event // set by the Fn of whichever event fires
		slots := make([]*Event, 6)
		newEvent := func(prio int) *Event {
			ev := &Event{Priority: prio}
			ev.Fn = func(*Engine) { got = ev }
			return ev
		}
		for op := 0; op < 200; op++ {
			i := rng.Intn(len(slots))
			when := e.Now() + Time(rng.Intn(4)) // small steps: plenty of ties
			prio := rng.Intn(3) - 1
			switch k := rng.Intn(6); k {
			case 0: // At or AtPriority: a fresh event in the slot
				var ev *Event
				fn := func(*Engine) { got = ev }
				if prio == 0 {
					ev = e.At(when, "at", fn)
				} else {
					ev = e.AtPriority(when, prio, "at", fn)
				}
				slots[i] = ev
				ref.at(when, prio, ev)
			case 1:
				e.Cancel(slots[i])
				ref.cancel(slots[i])
			case 2, 3: // Rearm; a nil slot gets a zero event of its own
				if slots[i] == nil {
					slots[i] = newEvent(prio)
				}
				ev := slots[i]
				if rng.Bool(0.1) && e.Now() > 0 {
					if !panicsPast(func() { e.Rearm(ev, e.Now()-1) }) {
						t.Fatalf("seed %d op %d: Rearm into the past did not panic with ErrPast", seed, op)
					}
					break
				}
				e.Rearm(ev, when)
				ref.cancel(ev)
				ref.at(when, ev.Priority, ev)
			default:
				got = nil
				stepped := e.Step()
				want := ref.step()
				if stepped != (want != nil) || got != want || e.Now() != ref.now {
					t.Fatalf("seed %d op %d: Step fired %p at %v, reference %p at %v", seed, op, got, e.Now(), want, ref.now)
				}
			}
			if e.Pending() != len(ref.pending) {
				t.Fatalf("seed %d op %d: pending %d, reference %d", seed, op, e.Pending(), len(ref.pending))
			}
			for _, ev := range slots {
				if ev == nil {
					continue
				}
				pending := false
				for _, p := range ref.pending {
					pending = pending || p.ev == ev
				}
				if (ev.index != 0) != pending {
					t.Fatalf("seed %d op %d: heap index %d with the event pending=%v", seed, op, ev.index, pending)
				}
			}
		}
	}
}
