//go:build !race

package machine

import "testing"

// The race detector adds allocations of its own, so the pin stands down
// under -race.

// TestAllocAllocs pins Alloc then Release on a fragmented machine to no
// allocation at all: finding the block builds no list of them, and the
// *Alloc and its ranges are the ones the last Release handed back.
func TestAllocAllocs(t *testing.T) {
	al := NewAllocator(256)
	var blocks []*Alloc
	for i := 0; i < 32; i++ {
		a, _ := al.Alloc(8)
		blocks = append(blocks, a)
	}
	for i := 1; i < len(blocks); i += 2 {
		al.Release(blocks[i])
	}
	if got := testing.AllocsPerRun(100, func() {
		a, err := al.Alloc(6)
		if err != nil {
			t.Fatal(err)
		}
		al.Release(a)
	}); got > 0 {
		t.Errorf("Alloc and Release on 16 free blocks: %v allocs, want 0", got)
	}
}
