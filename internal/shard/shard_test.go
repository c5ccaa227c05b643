package shard

import (
	"fmt"
	"slices"
	"testing"
)

func TestNilRingIsUnsharded(t *testing.T) {
	var r *Ring
	if r.Size() != 0 || r.Addrs() != nil || r.OwnerUser("alice") != "" {
		t.Fatal("nil ring must behave as unsharded")
	}
	if New(nil) != nil || New([]string{"", "  "}) != nil {
		t.Fatal("empty input must yield nil ring")
	}
}

func TestParse(t *testing.T) {
	r, err := Parse(" a:1, b:2 ,a:1 ")
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != 2 {
		t.Fatalf("want 2 members after dedupe, got %d (%v)", r.Size(), r.Addrs())
	}
	if got := r.Addrs(); got[0] != "a:1" || got[1] != "b:2" {
		t.Fatalf("order not preserved: %v", got)
	}
	if rr, err := Parse(""); err != nil || rr != nil {
		t.Fatalf("empty spec: want nil,nil got %v,%v", rr, err)
	}
	if _, err := Parse(" , ,"); err == nil {
		t.Fatal("all-empty spec must error")
	}
}

func TestOwnershipIsDeterministicAndTotal(t *testing.T) {
	r := New([]string{"a:1", "b:2", "c:3"})
	for i := 0; i < 100; i++ {
		u := fmt.Sprintf("user-%d", i)
		o := r.OwnerUser(u)
		if !slices.Contains(r.Addrs(), o) {
			t.Fatalf("owner %q of %q not a member", o, u)
		}
		if o2 := r.OwnerUser(u); o2 != o {
			t.Fatalf("ownership not deterministic: %q then %q", o, o2)
		}
	}
}

func TestKeyDomainsAreSeparate(t *testing.T) {
	// A user and a server with the same raw name may land on different
	// shards — the domain prefix keeps the hash spaces apart. Assert the
	// prefixes are actually in effect by checking at least one name in a
	// hundred diverges across domains on a 4-shard ring.
	r := New([]string{"a:1", "b:2", "c:3", "d:4"})
	diverged := false
	for i := 0; i < 100; i++ {
		name := fmt.Sprintf("node-%d", i)
		if r.OwnerUser(name) != r.OwnerServer(name) {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("user and server key domains appear to share one hash space")
	}
}

func TestDistributionIsRoughlyEven(t *testing.T) {
	r := New([]string{"a:1", "b:2", "c:3", "d:4"})
	counts := map[string]int{}
	const n = 4000
	for i := 0; i < n; i++ {
		counts[r.OwnerUser(fmt.Sprintf("user-%d", i))]++
	}
	for addr, c := range counts {
		frac := float64(c) / n
		if frac < 0.10 || frac > 0.45 {
			t.Fatalf("shard %s owns %.1f%% of keys — vnode spread broken: %v", addr, 100*frac, counts)
		}
	}
	if len(counts) != 4 {
		t.Fatalf("only %d of 4 shards own keys: %v", len(counts), counts)
	}
}

func TestRemovalOnlyMovesKeysOfTheLostShard(t *testing.T) {
	full := New([]string{"a:1", "b:2", "c:3", "d:4"})
	smaller := New([]string{"a:1", "b:2", "c:3"})
	moved, kept := 0, 0
	for i := 0; i < 2000; i++ {
		u := fmt.Sprintf("user-%d", i)
		before := full.OwnerUser(u)
		after := smaller.OwnerUser(u)
		if before == "d:4" {
			continue // had to move
		}
		if before == after {
			kept++
		} else {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d keys not owned by the removed shard moved anyway (kept %d)", moved, kept)
	}
}
