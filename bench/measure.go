package main

import (
	"bytes"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"faucets/internal/telemetry"
)

// snapshot is the process and component state at one edge of a measured
// window. Windows report the difference between two of them.
type snapshot struct {
	at       time.Time
	cpu      time.Duration // user+sys of the whole process (getrusage)
	alloc    uint64        // MemStats.TotalAlloc
	heap     uint64        // MemStats.HeapInuse, read after a forced GC
	gcPause  time.Duration // MemStats.PauseTotalNs
	maxRSSKB int64
	// series holds every sample of every scraped registry, summed across
	// registries under its exposition key (name plus label block).
	series   map[string]float64
	walBytes int64
}

// takeSnapshot forces a collection first so heap-in-use is live data, not
// garbage awaiting the next cycle; that is why it runs outside windows.
func takeSnapshot(regs []*telemetry.Registry, walFiles []string) snapshot {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := snapshot{
		alloc:   ms.TotalAlloc,
		heap:    ms.HeapInuse,
		gcPause: time.Duration(ms.PauseTotalNs),
		series:  scrape(regs),
	}
	for _, f := range walFiles {
		if st, err := os.Stat(f); err == nil {
			s.walBytes += st.Size()
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.maxRSSKB = int64(ru.Maxrss)
	}
	s.cpu = cpuNow()
	s.at = time.Now()
	return s
}

// scrape reads the registries' Prometheus exposition — the same text an
// operator's scraper sees — and sums each series across registries.
func scrape(regs []*telemetry.Registry) map[string]float64 {
	out := map[string]float64{}
	var buf bytes.Buffer
	for _, r := range regs {
		if r == nil {
			continue
		}
		buf.Reset()
		if err := r.WritePrometheus(&buf); err != nil {
			continue
		}
		for _, line := range strings.Split(buf.String(), "\n") {
			if line == "" || line[0] == '#' {
				continue
			}
			i := strings.LastIndexByte(line, ' ')
			if i < 0 {
				continue
			}
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				continue
			}
			out[line[:i]] += v
		}
	}
	return out
}

// seriesSum adds every series of the named metric, whatever its labels.
func seriesSum(series map[string]float64, name string) float64 {
	total := 0.0
	for k, v := range series {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

// delta is what changed over one window, or over several windows added
// together.
type delta struct {
	elapsed    time.Duration
	cpuMs      float64
	allocKB    float64
	retainedKB float64 // may be negative: a collection can free more than the window's jobs left behind
	walBytes   int64
	// counts is how much each scraped series grew; gauges is each series'
	// value at the end of the latest window.
	counts map[string]float64
	gauges map[string]float64
}

func between(from, to snapshot) delta {
	d := delta{
		elapsed:    to.at.Sub(from.at),
		cpuMs:      float64(to.cpu-from.cpu) / 1e6,
		allocKB:    float64(to.alloc-from.alloc) / 1024,
		retainedKB: (float64(to.heap) - float64(from.heap)) / 1024,
		walBytes:   to.walBytes - from.walBytes,
		counts:     map[string]float64{},
		gauges:     to.series,
	}
	for k, v := range to.series {
		d.counts[k] = v - from.series[k]
	}
	return d
}

// add folds a later window into d.
func (d *delta) add(o delta) {
	d.elapsed += o.elapsed
	d.cpuMs += o.cpuMs
	d.allocKB += o.allocKB
	d.retainedKB += o.retainedKB
	d.walBytes += o.walBytes
	if d.counts == nil {
		d.counts = map[string]float64{}
	}
	for k, v := range o.counts {
		d.counts[k] += v
	}
	d.gauges = o.gauges
}

// sumDeltas adds windows into a fresh delta, leaving each untouched.
func sumDeltas(ds ...delta) delta {
	var out delta
	for _, d := range ds {
		out.add(d)
	}
	return out
}

// count is how much the named metric grew, summed over every label set
// and registry.
func (d delta) count(name string) float64 { return seriesSum(d.counts, name) }

// meter samples the process once per slice while a window runs, so that
// a metric can be computed per one-second slice and reported from the
// window's good slices: the host slows in episodes of seconds to minutes
// (fsync by ±30%, memory-heavy code by 25% and more), and a figure taken
// over the whole window reports the episode, not the program.
type meter struct {
	done   atomic.Int64 // completions so far; the workload increments it
	stop   chan struct{}
	result chan []slice
}

// slice is one sampling interval of a window.
type slice struct {
	from, to time.Time
	cpuMs    float64
	done     int64
}

func (s slice) seconds() float64 { return s.to.Sub(s.from).Seconds() }

const sliceLen = time.Second

func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func startMeter() *meter {
	m := &meter{stop: make(chan struct{}), result: make(chan []slice, 1)}
	go func() {
		var out []slice
		tick := time.NewTicker(sliceLen)
		defer tick.Stop()
		at, cpu, done := time.Now(), cpuNow(), int64(0)
		for {
			select {
			case <-tick.C:
				now, c, n := time.Now(), cpuNow(), m.done.Load()
				out = append(out, slice{at, now, float64(c-cpu) / 1e6, n - done})
				at, cpu, done = now, c, n
			case <-m.stop:
				// The last, partial interval is dropped: its rate is noise.
				m.result <- out
				return
			}
		}
	}()
	return m
}

// finish stops the sampler and returns the whole slices it saw.
func (m *meter) finish() []slice {
	close(m.stop)
	return <-m.result
}

// stamped is one latency sample with the instant it completed.
type stamped struct {
	at time.Time
	v  float64
}

// goodSlice picks, from one value per slice, the k-th best, where k is a
// tenth of the slices rounded up: the second-best of a twenty-second
// window's twenty. Not the best, so that one lucky slice does not set it.
func goodSlice(perSlice samples, better string) float64 {
	sorted := perSlice.sorted()
	if len(sorted) == 0 {
		return 0
	}
	k := (len(sorted) + 9) / 10
	if better == "higher" {
		return sorted[len(sorted)-k]
	}
	return sorted[k-1]
}
