package central

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"faucets/internal/accounting"
	"faucets/internal/protocol"
	"faucets/internal/qos"
)

// The directory read used to collect matching entries from a map and
// sort them on every request, and the federated read to deduplicate
// through a set and sort again. Both are now one pass over name-ordered
// input. These tests hold the new reads to the old ones' answers; the
// old ones live on here as the reference.

// referenceListing is the old federated read: local matches, then every
// remote entry whose name is not yet listed and that matches, sorted.
func referenceListing(local []protocol.ServerInfo, remotes [][]protocol.ServerInfo, c *qos.Contract) []protocol.ServerInfo {
	out := append([]protocol.ServerInfo{}, local...)
	seen := map[string]bool{}
	for _, in := range out {
		seen[in.Spec.Name] = true
	}
	for _, remote := range remotes {
		for _, in := range remote {
			if seen[in.Spec.Name] || (c != nil && !in.Matches(c)) {
				continue
			}
			seen[in.Spec.Name] = true
			out = append(out, in)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Spec.Name < out[j].Spec.Name })
	return out
}

// TestRegistryStaysNameOrdered drives a seeded random mix of register,
// re-register, deregister, mark-dead and mark-seen and checks after
// every step that the listing is the set of live matching entries in
// name order — what sorting per read used to produce.
func TestRegistryStaysNameOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	s := New(accounting.Dollars)
	defer s.Close()
	model := map[string]protocol.ServerInfo{} // live entries by name
	dead := map[string]bool{}
	name := func() string { return fmt.Sprintf("srv-%02d", rng.Intn(30)) }
	want := &qos.Contract{App: "namd", MinPE: 64, MaxPE: 128, Work: 1}
	for step := 0; step < 3000; step++ {
		n := name()
		switch op := rng.Intn(10); {
		case op < 5:
			in := info(n, 32<<rng.Intn(3), 1024, "namd")
			in.Home = n
			if err := s.RegisterDaemon(in); err != nil {
				t.Fatal(err)
			}
			model[n], dead[n] = in, false
		case op < 7:
			s.Deregister(n)
			delete(model, n)
		case op < 8:
			s.MarkDead(n)
			dead[n] = true
		default:
			s.MarkSeen(n, protocol.PollOK{UsedPE: step})
			if in, ok := model[n]; ok {
				in.UsedPE = step
				model[n], dead[n] = in, false
			}
		}
		for _, c := range []*qos.Contract{nil, want} {
			var ref []protocol.ServerInfo
			for n, in := range model {
				if !dead[n] && (c == nil || in.Matches(c)) {
					ref = append(ref, in)
				}
			}
			got := s.Servers(c)
			if !reflect.DeepEqual(got, referenceListing(ref, nil, nil)) && len(got)+len(ref) > 0 {
				t.Fatalf("step %d: listing\n %v\nwant\n %v", step, got, referenceListing(ref, nil, nil))
			}
		}
	}
}

// TestFederatedListingMatchesReference: local entries win a name held
// on both sides, a name two peers hold is listed once, remote entries
// pass the contract's filters, and the union is in name order — whatever
// order a peer served its digest in.
func TestFederatedListingMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var reused []protocol.ServerInfo
	for round := 0; round < 200; round++ {
		s := New(accounting.Dollars)
		draw := func(home string) []protocol.ServerInfo {
			var out []protocol.ServerInfo
			for _, i := range rng.Perm(12)[:rng.Intn(8)] {
				in := info(fmt.Sprintf("srv-%02d", i), 32<<rng.Intn(3), 1024, "namd")
				in.Home = home
				out = append(out, in)
			}
			return out
		}
		for _, in := range draw("local") {
			if err := s.RegisterDaemon(in); err != nil {
				t.Fatal(err)
			}
		}
		// One peer per round holds names another may hold too; which of two
		// peers wins a shared name was never defined, so they do not overlap.
		east, west := draw("east"), draw("west")
		held := map[string]bool{}
		for _, in := range east {
			held[in.Spec.Name] = true
		}
		kept := west[:0]
		for _, in := range west {
			if !held[in.Spec.Name] {
				kept = append(kept, in)
			}
		}
		west = kept
		now := time.Now()
		s.storeDigest("east", now, protocol.GossipOK{Servers: append([]protocol.ServerInfo(nil), east...)})
		s.storeDigest("west", now, protocol.GossipOK{Servers: append([]protocol.ServerInfo(nil), west...)})
		for _, c := range []*qos.Contract{nil, {App: "namd", MinPE: 64, MaxPE: 128, Work: 1}} {
			got := s.FederatedServers(c)
			want := referenceListing(s.Servers(c), [][]protocol.ServerInfo{east, west}, c)
			if !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
				t.Fatalf("round %d: federated listing\n %v\nwant\n %v", round, got, want)
			}
			// The list_servers arm appends into a listing it has used before.
			reused = s.appendFederated(reused[:0], c)
			if !reflect.DeepEqual(reused, want) && len(reused)+len(want) > 0 {
				t.Fatalf("round %d: listing appended into a used slice\n %v\nwant\n %v", round, reused, want)
			}
		}
		s.Close()
	}
}

// serversCase is the directory read of one Place against a fleet-server
// registry: the filtered listing in one pass into one pre-sized slice,
// or — appended, what the list_servers arm runs — into the listing the
// last read left behind.
func serversCase(tb testing.TB, fleet int, appended bool) func() {
	s := New(accounting.Dollars)
	tb.Cleanup(s.Close)
	for _, i := range rand.New(rand.NewSource(1)).Perm(fleet) {
		if err := s.RegisterDaemon(info(fmt.Sprintf("srv-%03d", i), 64+i%4*64, 1024, "namd")); err != nil {
			tb.Fatal(err)
		}
	}
	c := &qos.Contract{App: "namd", MinPE: 8, MaxPE: 64, Work: 1}
	var listing []protocol.ServerInfo
	return func() {
		if appended {
			listing = s.appendFederated(listing[:0], c)
		} else {
			listing = s.Servers(c)
		}
		if len(listing) != fleet {
			tb.Fatalf("listed %d of %d", len(listing), fleet)
		}
	}
}

// BenchmarkServers times serversCase; TestServersAllocs pins fleet_16 at
// 1 allocs/op and fleet_16_append at 0.
func BenchmarkServers(b *testing.B) {
	for _, fleet := range []int{16, 256} {
		for _, appended := range []bool{false, true} {
			name := fmt.Sprintf("fleet_%d", fleet)
			if appended {
				name += "_append"
			}
			b.Run(name, func(b *testing.B) {
				read := serversCase(b, fleet, appended)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					read()
				}
			})
		}
	}
}
