package grid

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"faucets/internal/bidding"
	"faucets/internal/client"
	"faucets/internal/gridsim"
	"faucets/internal/market"
	"faucets/internal/protocol"
	"faucets/internal/workload"
)

// The three machines of threeClusterGrid plus one that prices off the
// contract history (§5.2.1) and is too dear to win while it watches.
func historyWatcherClusters() []ClusterSpec {
	return []ClusterSpec{
		{Spec: spec("turing", 64, 0.010), Apps: []string{"synth"}},
		{Spec: spec("lemieux", 128, 0.008), Apps: []string{"synth"}},
		{Spec: spec("tungsten", 32, 0.020), Apps: []string{"synth"}},
		{Spec: spec("watcher", 32, 0.500), Apps: []string{"synth"}, Bidder: bidding.NewHistory(nil)},
	}
}

// awayUsers picks n of the candidates. On a mesh the first two are homed
// on different shards, so whichever baseline server wins, one of them
// settles on a shard other than the winner's owner.
func awayUsers(t *testing.T, g *Grid, candidates []string, n int) []string {
	t.Helper()
	if g.ring.Size() < 2 {
		return candidates[:n]
	}
	users := []string{candidates[0]}
	for _, u := range candidates[1:] {
		if g.ring.OwnerUser(u) != g.ring.OwnerUser(users[0]) {
			users = append(users, u)
			break
		}
	}
	for _, u := range candidates[1:] {
		if len(users) < n && !slices.Contains(users, u) {
			users = append(users, u)
		}
	}
	for _, s := range historyWatcherClusters()[:3] {
		if !slices.ContainsFunc(users, func(u string) bool { return g.ring.OwnerUser(u) != g.ring.OwnerServer(s.Spec.Name) }) {
			t.Fatalf("users %v are all homed on %s's owner", users, s.Spec.Name)
		}
	}
	return users
}

// runAndSettle places, starts and finishes one job per user, in turn, and
// waits until every one is in the price history. It returns the awards.
func runAndSettle(t *testing.T, g *Grid, users []string) []*client.Placement {
	t.Helper()
	var placed []*client.Placement
	for i, u := range users {
		cl, err := g.Login(u, "pw")
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		p, err := cl.Place(contract(float64(200+100*i)), market.LeastCost{})
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Start(p); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.WaitFinished(p, 20*time.Second); err != nil {
			t.Fatal(err)
		}
		placed = append(placed, p)
	}
	retryUntil(t, "settlements", 10*time.Second, func() error {
		if n := g.HistoryLen(); n != len(users) {
			return fmt.Errorf("%d of %d jobs in the price history", n, len(users))
		}
		return nil
	})
	return placed
}

// TestLivePriceHistoryRecordsTheBidMultiplier: a settled contract's history
// row carries the multiplier the winner bid — price over list price at the
// winner's own cost rate — so the §5.2.1 bidders read the same history on
// the live grid as in gridsim. (The Central Server used to book
// price/CPU-seconds, i.e. the multiplier times the cost rate: 0.008 for a
// 1.0× bid won by lemieux, which clamped every live history bidder to its
// floor.) On the mesh the settling shard is the user's, not the server's:
// it must find the cost rate in a peer's digest.
func TestLivePriceHistoryRecordsTheBidMultiplier(t *testing.T) {
	// Which users settle on a shard other than the winner's depends on the
	// ring, and the ring on the listeners' random ports: the four users
	// that run are picked from a larger set once the grid is up.
	candidates := make([]string, 32)
	pw := map[string]string{}
	for i := range candidates {
		candidates[i] = fmt.Sprintf("user%02d", i)
		pw[candidates[i]] = "pw"
	}
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards_%d", shards), func(t *testing.T) {
			g, err := Start(historyWatcherClusters(), Options{Users: pw, Shards: shards, GossipInterval: 25 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			users := awayUsers(t, g, candidates, 4)
			placed := runAndSettle(t, g, users)

			bid := map[string]float64{}
			for _, p := range placed {
				if p.Bid.Multiplier != 1 {
					t.Fatalf("job %s won at multiplier %v by %s: the baseline bidders bid 1.0", p.JobID, p.Bid.Multiplier, p.Server.Spec.Name)
				}
				bid[p.JobID] = p.Bid.Multiplier
			}
			for _, r := range g.Contracts(100) {
				if math.Abs(r.Multiplier-bid[r.JobID]) > 1e-9 {
					t.Errorf("history row %s on %s: multiplier %v, the winning bid's was %v", r.JobID, r.Server, r.Multiplier, bid[r.JobID])
				}
			}
			retryUntil(t, "weather", 5*time.Second, func() error {
				if w := g.Central.Weather(); w.Contracts != len(users) || math.Abs(w.MeanMultiplier-1) > 1e-9 {
					return fmt.Errorf("weather %v: want %d contracts at mean multiplier 1", w, len(users))
				}
				return nil
			})

			if shards > 1 {
				crossed := 0
				for i, s := range g.Shards {
					for _, r := range s.DB.RecentContracts(nil, 100) {
						if g.ring.OwnerServer(r.Server) != g.ShardAddrs[i] {
							crossed++
						}
					}
				}
				if crossed == 0 {
					t.Fatal("no settlement was booked by a shard other than the executing server's: the digest lookup went untested")
				}
				return // a shard's history holds its own users' contracts only
			}

			// The watcher now has history to price from: the market clears
			// at 1.0×, so that is what it bids — not its 0.25 floor.
			cl, err := g.Login(users[0], "pw")
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			servers, err := cl.ListServers(nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range servers {
				if s.Spec.Name != "watcher" {
					continue
				}
				var reply protocol.BidOK
				err := protocol.DialCall(s.Addr, time.Second, protocol.TypeBidReq,
					protocol.BidReq{User: cl.User, Token: cl.Token, Contract: contract(100)}, protocol.TypeBidOK, &reply)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(reply.Bid.Multiplier-1) > 1e-9 {
					t.Fatalf("history bidder bids %v× against a market that cleared at 1.0×", reply.Bid.Multiplier)
				}
				return
			}
			t.Fatal("the watcher is not in the directory")
		})
	}

	// The same trace through the simulator books the same multipliers.
	users := candidates[:4]
	var cfg gridsim.Config
	for _, c := range historyWatcherClusters()[:3] {
		cfg.Servers = append(cfg.Servers, gridsim.ServerConfig{Spec: c.Spec})
	}
	trace := &workload.Trace{}
	for i, u := range users {
		trace.Items = append(trace.Items, workload.Item{
			ID: fmt.Sprintf("sim-%d", i), SubmitAt: float64(1000 * i), User: u, Contract: contract(float64(200 + 100*i)),
		})
	}
	res, err := gridsim.Run(cfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	recs := res.DB.RecentContracts(nil, 100)
	if len(recs) != len(users) {
		t.Fatalf("gridsim settled %d of %d jobs", len(recs), len(users))
	}
	for _, r := range recs {
		if math.Abs(r.Multiplier-1) > 1e-9 {
			t.Errorf("gridsim history row %s on %s: multiplier %v, want 1", r.JobID, r.Server, r.Multiplier)
		}
	}
}
