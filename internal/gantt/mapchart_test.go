package gantt

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"faucets/internal/sim"
)

// mapChart is the chart as a map of reservations, rescanned at every
// instant: O(n³) per window, and the reference the step function's
// every answer is held to.
type mapChart struct {
	capacity int
	nextID   int
	res      map[int]reservation
}

type reservation struct {
	start, end float64 // end may be +Inf
	pe         int
}

func newMapChart(capacity int) *mapChart {
	return &mapChart{capacity: capacity, res: map[int]reservation{}}
}

func (c *mapChart) Reserve(start, end float64, pe int) (int, error) {
	if !(start < end) {
		return 0, fmt.Errorf("%w: [%v,%v)", ErrBadInterval, start, end)
	}
	if pe < 1 || pe > c.capacity {
		return 0, fmt.Errorf("%w: %d of %d", ErrBadPEs, pe, c.capacity)
	}
	if c.MinFree(start, end) < pe {
		return 0, fmt.Errorf("%w: %d PEs in [%v,%v)", ErrOverflow, pe, start, end)
	}
	c.nextID++
	c.res[c.nextID] = reservation{start: start, end: end, pe: pe}
	return c.nextID, nil
}

func (c *mapChart) usedAt(t float64) int {
	used := 0
	for _, r := range c.res {
		if r.start <= t && t < r.end {
			used += r.pe
		}
	}
	return used
}

// MinFree samples start and every reservation boundary inside the
// window: availability only changes at boundaries.
func (c *mapChart) MinFree(start, end float64) int {
	min := c.capacity - c.usedAt(start)
	for _, r := range c.res {
		for _, t := range [2]float64{r.start, r.end} {
			if t > start && t < end {
				if f := c.capacity - c.usedAt(t); f < min {
					min = f
				}
			}
		}
	}
	return min
}

// FindWindow tries `earliest` and then every finite boundary after it,
// in order.
func (c *mapChart) FindWindow(earliest, duration float64, pe int, deadline float64) (float64, bool) {
	if pe < 1 || pe > c.capacity || duration <= 0 {
		return 0, false
	}
	cands := []float64{earliest}
	for _, r := range c.res {
		for _, t := range [2]float64{r.start, r.end} {
			if t > earliest && !math.IsInf(t, 1) {
				cands = append(cands, t)
			}
		}
	}
	sort.Float64s(cands)
	for _, start := range cands {
		if deadline > 0 && start+duration > deadline {
			return 0, false
		}
		if c.MinFree(start, start+duration) >= pe {
			return start, true
		}
	}
	return 0, false
}

func (c *mapChart) Horizon(now float64) float64 {
	h := now
	for _, r := range c.res {
		if !math.IsInf(r.end, 1) && r.end > h {
			h = r.end
		}
	}
	return h
}

// fuzzTime maps a byte to an instant: mostly half-seconds in [0, 24),
// so that bounds coincide often, and now and then a value that breaks a
// naive comparison. −0 is left out: the map chart's answer between 0
// and −0 depends on its iteration order.
func fuzzTime(b byte) float64 {
	switch b {
	case 250:
		return math.NaN()
	case 251, 252:
		return math.Inf(1)
	case 253:
		return math.Inf(-1)
	case 254:
		return 0.1
	case 255:
		return math.MaxFloat64
	}
	return float64(b%48) / 2
}

// FuzzChartMatchesMap drives the step-function chart and the map chart
// through the same operations and holds every answer — each Reserve's
// id and error, each minFree, FindWindow and Horizon — equal bit for bit.
func FuzzChartMatchesMap(f *testing.F) {
	// Each operation is five bytes: the operation, two instants, PEs and
	// a deadline. A window that ends exactly where a full step begins
	// fits: Reserve(5, 10, 4), FindWindow(0, 5, 4, 0).
	f.Add(uint8(3), []byte{0, 10, 20, 4, 0, 2, 0, 10, 4, 0})
	// Reservations with NaN and infinite bounds, a window at 0, Horizon.
	f.Add(uint8(3), []byte{0, 250, 20, 4, 0, 0, 0, 250, 4, 0, 0, 253, 251, 1, 0, 2, 0, 10, 4, 0, 3, 0, 0, 0, 0})
	for seed := uint64(1); seed <= 64; seed++ {
		rng := sim.NewRNG(seed)
		ops := make([]byte, 300)
		for i := range ops {
			ops[i] = byte(rng.Intn(256))
		}
		f.Add(uint8(rng.Intn(16)), ops)
	}
	f.Fuzz(func(t *testing.T, capacity uint8, ops []byte) {
		pes := 1 + int(capacity)%16
		got, want := NewChart(pes), newMapChart(pes)
		same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
		for i := 0; i+4 < len(ops); i += 5 {
			a, b, pe, d := fuzzTime(ops[i+1]), fuzzTime(ops[i+2]), int(ops[i+3])%(pes+2), fuzzTime(ops[i+4])
			switch ops[i] % 4 {
			case 0:
				gid, gerr := got.Reserve(a, b, pe)
				wid, werr := want.Reserve(a, b, pe)
				if gid != wid || fmt.Sprint(gerr) != fmt.Sprint(werr) {
					t.Fatalf("op %d: Reserve(%v, %v, %d) = %d, %v; map chart: %d, %v", i/5, a, b, pe, gid, gerr, wid, werr)
				}
			case 1:
				if g, w := got.minFree(a, b), want.MinFree(a, b); g != w {
					t.Fatalf("op %d: minFree(%v, %v) = %d; map chart: %d", i/5, a, b, g, w)
				}
			case 2:
				gs, gok := got.FindWindow(a, b, pe, d)
				ws, wok := want.FindWindow(a, b, pe, d)
				if !same(gs, ws) || gok != wok {
					t.Fatalf("op %d: FindWindow(%v, %v, %d, %v) = %v, %v; map chart: %v, %v", i/5, a, b, pe, d, gs, gok, ws, wok)
				}
			case 3:
				if g, w := got.Horizon(a), want.Horizon(a); !same(g, w) {
					t.Fatalf("op %d: Horizon(%v) = %v; map chart: %v", i/5, a, g, w)
				}
			}
		}
	})
}
