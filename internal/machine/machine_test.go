package machine

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"faucets/internal/sim"
)

func TestSpecValidate(t *testing.T) {
	good := Spec{Name: "turing", NumPE: 128, MemPerPE: 512, CPUType: "x86", Speed: 1.0, CostRate: 0.01}
	if err := good.Validate(); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
	bad := []Spec{
		{Name: "", NumPE: 1, Speed: 1},
		{Name: "x", NumPE: 0, Speed: 1},
		{Name: "x", NumPE: 1, Speed: 0},
		{Name: "x", NumPE: 1, Speed: 1, CostRate: -1},
		{Name: "x", NumPE: 1, Speed: 1, MemPerPE: -5},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, s)
		}
	}
}

func TestAllocContiguousPreferred(t *testing.T) {
	al := NewAllocator(16)
	a, err := al.Alloc(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.ranges) != 1 || a.Size() != 8 {
		t.Fatalf("first allocation not contiguous: %v", a)
	}
	if al.Free() != 8 || al.Used() != 8 {
		t.Fatalf("free=%d used=%d", al.Free(), al.Used())
	}
}

func TestAllocBestFit(t *testing.T) {
	al := NewAllocator(20)
	a1, _ := al.Alloc(5) // [0,5)
	a2, _ := al.Alloc(5) // [5,10)
	a3, _ := al.Alloc(5) // [10,15)
	_ = a3
	al.Release(a1) // free [0,5) and [15,20)
	al.Release(a2) // free [0,10) and [15,20)
	// A request for 4 should best-fit into the 5-wide block [15,20),
	// not the 10-wide block.
	a4, err := al.Alloc(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(a4.ranges) != 1 {
		t.Fatalf("best-fit allocation fragmented: %v", a4)
	}
	if r := a4.ranges[0]; r.Lo != 15 {
		t.Fatalf("best-fit chose block at %d, want 15", r.Lo)
	}
}

func TestAllocFragmentedFallback(t *testing.T) {
	al := NewAllocator(12)
	a1, _ := al.Alloc(4) // [0,4)
	a2, _ := al.Alloc(4) // [4,8)
	_, _ = al.Alloc(4)   // [8,12)
	al.Release(a1)
	_ = a2
	// Free: [0,4). Release the tail too.
	// Now allocate 4: fits contiguous. Allocate more than any block:
	al2 := NewAllocator(12)
	b1, _ := al2.Alloc(4) // [0,4)
	b2, _ := al2.Alloc(4) // [4,8)
	b3, _ := al2.Alloc(4) // [8,12)
	al2.Release(b1)
	al2.Release(b3)
	_ = b2
	// Free blocks: [0,4) and [8,12). Request 6 → must fragment.
	frag, err := al2.Alloc(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(frag.ranges) == 1 {
		t.Fatal("expected fragmented allocation")
	}
	if frag.Size() != 6 {
		t.Fatalf("fragmented size=%d", frag.Size())
	}
	if al2.Free() != 2 {
		t.Fatalf("free=%d, want 2", al2.Free())
	}
}

func TestAllocErrors(t *testing.T) {
	al := NewAllocator(4)
	if _, err := al.Alloc(0); err == nil {
		t.Fatal("Alloc(0) accepted")
	}
	if _, err := al.Alloc(5); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("oversized alloc error = %v", err)
	}
}

func TestReleaseDoublePanics(t *testing.T) {
	al := NewAllocator(4)
	a, _ := al.Alloc(2)
	// Copy the ranges so we can simulate a stale handle.
	stale := &Alloc{ranges: append([]Range(nil), a.ranges...)}
	al.Release(a)
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	al.Release(stale)
}

// TestReleaseTwicePanics: releasing one allocation twice panics, even
// though the first release left it holding nothing. Were it silent, the
// released allocation would be queued for reuse twice and granted to two
// jobs.
func TestReleaseTwicePanics(t *testing.T) {
	al := NewAllocator(4)
	a, _ := al.Alloc(2)
	al.Release(a)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("second release of one allocation did not panic")
			}
		}()
		al.Release(a)
	}()
	b, _ := al.Alloc(1)
	c, _ := al.Alloc(1)
	if b == c {
		t.Fatalf("one allocation granted twice: %p", b)
	}
}

func TestReleaseNilNoop(t *testing.T) {
	al := NewAllocator(4)
	al.Release(nil)
	if al.Free() != 4 {
		t.Fatal("releasing nil changed state")
	}
}

func TestShrink(t *testing.T) {
	al := NewAllocator(16)
	a, _ := al.Alloc(10)
	if err := al.Shrink(a, 4); err != nil {
		t.Fatal(err)
	}
	if a.Size() != 4 || len(a.ranges) != 1 {
		t.Fatalf("after shrink: size=%d ranges=%v", a.Size(), a.ranges)
	}
	if al.Free() != 12 {
		t.Fatalf("free=%d, want 12", al.Free())
	}
	if err := al.Shrink(a, 0); err == nil {
		t.Fatal("shrink to 0 accepted")
	}
	if err := al.Shrink(a, 9); err == nil {
		t.Fatal("shrink that grows accepted")
	}
}

func TestExpandInPlace(t *testing.T) {
	al := NewAllocator(16)
	a, _ := al.Alloc(4) // [0,4)
	if err := al.Expand(a, 8); err != nil {
		t.Fatal(err)
	}
	if a.Size() != 8 || len(a.ranges) != 1 {
		t.Fatalf("expand broke contiguity: %v size=%d", a, a.Size())
	}
}

func TestExpandLeftward(t *testing.T) {
	al := NewAllocator(16)
	blocker, _ := al.Alloc(4) // [0,4)
	a, _ := al.Alloc(4)       // [4,8)
	fence, _ := al.Alloc(8)   // [8,16)
	_ = fence
	al.Release(blocker) // free [0,4)
	if err := al.Expand(a, 8); err != nil {
		t.Fatal(err)
	}
	if len(a.ranges) != 1 || a.Size() != 8 {
		t.Fatalf("leftward expand failed: %v", a)
	}
	if r := a.ranges[0]; r.Lo != 0 || r.Hi != 8 {
		t.Fatalf("expanded range = %v", r)
	}
}

func TestExpandFragmentedFallback(t *testing.T) {
	al := NewAllocator(12)
	a, _ := al.Alloc(2)    // [0,2)
	mid, _ := al.Alloc(4)  // [2,6)
	tail, _ := al.Alloc(6) // [6,12)
	al.Release(tail)       // free [6,12)
	_ = mid
	if err := al.Expand(a, 6); err != nil {
		t.Fatal(err)
	}
	if a.Size() != 6 {
		t.Fatalf("size=%d", a.Size())
	}
	if len(a.ranges) == 1 {
		t.Fatal("expected fragmented expansion around the blocker")
	}
	if err := al.Expand(a, 100); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("oversized expand error = %v", err)
	}
	if err := al.Expand(a, 2); err == nil {
		t.Fatal("expand that shrinks accepted")
	}
}

func TestExpandNoopAndMerge(t *testing.T) {
	al := NewAllocator(8)
	a, _ := al.Alloc(3)
	if err := al.Expand(a, 3); err != nil {
		t.Fatal(err)
	}
	if a.Size() != 3 {
		t.Fatal("no-op expand changed size")
	}
}

func TestString(t *testing.T) {
	al := NewAllocator(8)
	a, _ := al.Alloc(3)
	if !strings.Contains(a.String(), "[0,3)") {
		t.Fatalf("String=%q", a.String())
	}
	empty := &Alloc{}
	if empty.String() != "[]" {
		t.Fatalf("empty String=%q", empty.String())
	}
}

// Property: under any random sequence of alloc/release/shrink/expand,
// the allocator's free count equals numPE minus the sum of live
// allocation sizes, and no processor is in two live allocations.
func TestAllocatorInvariantProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		const numPE = 64
		al := NewAllocator(numPE)
		var live []*Alloc
		for step := 0; step < 200; step++ {
			switch rng.Intn(4) {
			case 0: // alloc
				n := 1 + rng.Intn(16)
				if a, err := al.Alloc(n); err == nil {
					live = append(live, a)
				}
			case 1: // release
				if len(live) > 0 {
					i := rng.Intn(len(live))
					al.Release(live[i])
					live = append(live[:i], live[i+1:]...)
				}
			case 2: // shrink
				if len(live) > 0 {
					a := live[rng.Intn(len(live))]
					if a.Size() > 1 {
						_ = al.Shrink(a, 1+rng.Intn(a.Size()))
					}
				}
			case 3: // expand
				if len(live) > 0 {
					a := live[rng.Intn(len(live))]
					_ = al.Expand(a, a.Size()+rng.Intn(8))
				}
			}
			// Invariants.
			total := 0
			owner := make([]int, numPE)
			for i := range owner {
				owner[i] = -1
			}
			for idx, a := range live {
				total += a.Size()
				for _, r := range a.ranges {
					for p := r.Lo; p < r.Hi; p++ {
						if p < 0 || p >= numPE || owner[p] != -1 {
							return false
						}
						owner[p] = idx
					}
				}
			}
			if al.Used() != total || al.Free() != numPE-total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
