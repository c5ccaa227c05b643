package machine

import (
	"slices"
	"testing"

	"faucets/internal/sim"
)

// blockScan lists the free contiguous ranges of a used map, in index
// order — the block list Alloc once built on every call.
func blockScan(used []bool) []Range {
	var blocks []Range
	for i := 0; i < len(used); {
		if used[i] {
			i++
			continue
		}
		j := i
		for j < len(used) && !used[j] {
			j++
		}
		blocks = append(blocks, Range{i, j})
		i = j
	}
	return blocks
}

// blockScanAlloc is the oracle for Alloc: the ranges the block-list best
// fit grants for n processors, or nil when fewer than n are free. It
// takes the smallest block that fits, the first of equals; failing that,
// blocks in index order until n are taken.
func blockScanAlloc(used []bool, n int) []Range {
	blocks := blockScan(used)
	free := 0
	for _, b := range blocks {
		free += b.Len()
	}
	if n <= 0 || n > free {
		return nil
	}
	best := -1
	for i, b := range blocks {
		if b.Len() >= n && (best == -1 || b.Len() < blocks[best].Len()) {
			best = i
		}
	}
	if best >= 0 {
		return []Range{{blocks[best].Lo, blocks[best].Lo + n}}
	}
	var out []Range
	for _, b := range blocks {
		take := min(b.Len(), n)
		out = append(out, Range{b.Lo, b.Lo + take})
		if n -= take; n == 0 {
			break
		}
	}
	return out
}

// TestBlockScanOracle checks the oracle itself on two holes of 3 and 4
// processors: the larger is the largest free block, the only one a
// request for 4 fits, and a request for 5 scatters across both.
func TestBlockScanOracle(t *testing.T) {
	al := NewAllocator(10)
	a, _ := al.Alloc(3) // [0,3)
	b, _ := al.Alloc(3) // [3,6)
	_ = b
	al.Release(a)
	if got, want := blockScan(al.used), []Range{{0, 3}, {6, 10}}; !slices.Equal(got, want) {
		t.Fatalf("free blocks %v, want %v", got, want)
	}
	for n, want := range map[int][]Range{
		3: {{0, 3}},
		4: {{6, 10}},
		5: {{0, 3}, {6, 8}},
		8: nil,
	} {
		if got := blockScanAlloc(al.used, n); !slices.Equal(got, want) {
			t.Errorf("oracle for %d: %v, want %v", n, got, want)
		}
	}
}

// FuzzAllocMatchesBlockScan: on any machine size, under any sequence of
// Alloc, Release, Shrink and Expand read two bytes an operation from the
// input, every Alloc grants exactly the ranges the block-list best fit
// picks in an allocation no live one shares, and the free count matches
// the used map.
func FuzzAllocMatchesBlockScan(f *testing.F) {
	// Allocate 4+4+4 of 12, free the outer two, ask for 6: it scatters.
	f.Add(uint8(11), []byte{0, 3, 0, 3, 0, 3, 1, 0, 1, 1, 0, 5})
	// Holes of 3 and 4 of 10: 4 takes the larger hole.
	f.Add(uint8(9), []byte{0, 2, 0, 2, 1, 0, 0, 3})
	// Holes of 10 and 5 of 20: 4 takes the smaller hole.
	f.Add(uint8(19), []byte{0, 4, 0, 4, 0, 4, 1, 0, 1, 0, 0, 3})
	for seed := uint64(1); seed <= 32; seed++ {
		rng := sim.NewRNG(seed)
		ops := make([]byte, 400)
		for i := range ops {
			ops[i] = byte(rng.Intn(256))
		}
		f.Add(uint8(rng.Intn(64)), ops)
	}
	f.Fuzz(func(t *testing.T, pe uint8, ops []byte) {
		numPE := 1 + int(pe)%128
		al := NewAllocator(numPE)
		var live []*Alloc
		for i := 0; i+1 < len(ops); i += 2 {
			arg := int(ops[i+1])
			switch ops[i] % 4 {
			case 0:
				n := 1 + arg%numPE
				want := blockScanAlloc(al.used, n)
				a, err := al.Alloc(n)
				if want == nil {
					if err == nil {
						t.Fatalf("op %d: Alloc(%d) with %d free granted %v", i/2, n, al.Free()+n, a)
					}
					continue
				}
				if err != nil || !slices.Equal(a.ranges, want) {
					t.Fatalf("op %d: Alloc(%d) = %v, %v; block scan picks %v", i/2, n, a, err, want)
				}
				if slices.Contains(live, a) {
					t.Fatalf("op %d: Alloc(%d) granted %p, which is still live", i/2, n, a)
				}
				live = append(live, a)
			case 1:
				if len(live) > 0 {
					k := arg % len(live)
					al.Release(live[k])
					live = slices.Delete(live, k, k+1)
				}
			case 2:
				if len(live) > 0 {
					if a := live[arg%len(live)]; a.Size() > 1 {
						_ = al.Shrink(a, 1+arg%a.Size())
					}
				}
			case 3:
				if len(live) > 0 {
					a := live[arg%len(live)]
					_ = al.Expand(a, a.Size()+arg%8)
				}
			}
			free := 0
			for _, u := range al.used {
				if !u {
					free++
				}
			}
			if free != al.Free() {
				t.Fatalf("op %d: %d processors free, Free() says %d", i/2, free, al.Free())
			}
		}
	})
}
