package main

import (
	"sort"
	"time"
)

// plan is the run's sequence of measured windows, as traced flags. An
// untraced run is one window of the whole length. A traced run splits
// that length into four windows ordered untraced, traced, traced,
// untraced: daemons keep every job and the Central Server every
// contract, so later windows run against more state, and this order
// cancels that drift out of the traced-versus-untraced difference.
func (c *runCfg) plan() []bool {
	if !c.trace {
		return []bool{false}
	}
	return []bool{false, true, true, false}
}

// windowLen is the length of each window in plan.
func (c *runCfg) windowLen() time.Duration {
	return c.window() / time.Duration(len(c.plan()))
}

// windowAcc is what every workload accumulates over the windows of one
// kind (untraced or traced): the summed deltas, the meter's slices, and
// the headline latency samples with their completion instants.
type windowAcc struct {
	d      delta
	slices []slice
	m      *meter // the running window's meter
	lat    []stamped
}

// begin opens a window: a snapshot, then the meter.
func (a *windowAcc) begin(snap func() snapshot) snapshot {
	from := snap()
	a.m = startMeter()
	return from
}

// end closes the window opened by begin.
func (a *windowAcc) end(from snapshot, snap func() snapshot) {
	slices := a.m.finish()
	a.d.add(between(from, snap()))
	a.slices = append(a.slices, slices...)
}

// observe records one headline latency sample that completed at `at`.
// The caller serialises calls (each phase does, under its own mutex).
func (a *windowAcc) observe(at time.Time, ms float64) {
	a.lat = append(a.lat, stamped{at, ms})
}

// minSliceSamples is how many latency samples a slice needs before its
// percentile is taken.
const minSliceSamples = 10

// jobsPerSecond is a good slice's completion rate; the whole windows'
// rate when they were too short to hold a slice.
func (a *windowAcc) jobsPerSecond(jobs float64) float64 {
	var per samples
	for _, sl := range a.slices {
		per.add(ratio(float64(sl.done), sl.seconds()))
	}
	if len(per) == 0 {
		return ratio(jobs, a.d.elapsed.Seconds())
	}
	return goodSlice(per, "higher")
}

// cpuMsPerJob is a good slice's CPU per completion; the whole windows'
// when no slice completed anything.
func (a *windowAcc) cpuMsPerJob(jobs float64) float64 {
	var per samples
	for _, sl := range a.slices {
		if sl.done > 0 {
			per.add(sl.cpuMs / float64(sl.done))
		}
	}
	if len(per) == 0 {
		return ratio(a.d.cpuMs, jobs)
	}
	return goodSlice(per, "lower")
}

// latencyMs is a good slice's p-th percentile of the headline latency;
// the percentile over every sample when no slice holds enough of them.
func (a *windowAcc) latencyMs(p float64) float64 {
	lat := append([]stamped(nil), a.lat...)
	sort.Slice(lat, func(i, j int) bool { return lat[i].at.Before(lat[j].at) })
	var per, all samples
	i := 0
	for _, sl := range a.slices {
		for i < len(lat) && lat[i].at.Before(sl.from) {
			i++
		}
		var in samples
		for i < len(lat) && lat[i].at.Before(sl.to) {
			in.add(lat[i].v)
			i++
		}
		if len(in) >= minSliceSamples {
			per.add(in.pct(p))
		}
	}
	if len(per) == 0 {
		for _, s := range lat {
			all.add(s.v)
		}
		return all.pct(p)
	}
	return goodSlice(per, "lower")
}

// overheadPct is how much worse the traced windows' median is than the
// untraced windows', in percent.
func overheadPct(untraced, traced float64) float64 {
	return 100 * ratio(traced-untraced, untraced)
}
