package grid

import (
	"fmt"
	"net"
	"testing"
	"time"

	"faucets/internal/client"
	"faucets/internal/market"
	"faucets/internal/protocol"
)

// shardedClusters are deliberately identical in Speed and CostRate so
// total revenue depends only on the contracts, not on which shard or
// server wins each auction — the invariant the kill tests compare.
func shardedClusters() []ClusterSpec {
	return []ClusterSpec{
		{Spec: spec("turing", 64, 0.01), Apps: []string{"synth"}},
		{Spec: spec("lemieux", 64, 0.01), Apps: []string{"synth"}},
		{Spec: spec("tungsten", 64, 0.01), Apps: []string{"synth"}},
	}
}

var shardedUsers = []string{"alice", "bob", "carol", "dave"}

func startShardedGrid(t *testing.T, shards int) *Grid {
	t.Helper()
	users := map[string]string{}
	for _, u := range shardedUsers {
		users[u] = "pw"
	}
	g, err := Start(shardedClusters(), Options{
		Users:          users,
		Shards:         shards,
		StateDir:       t.TempDir(),
		PollInterval:   50 * time.Millisecond,
		RPCTimeout:     500 * time.Millisecond,
		SettleRetry:    20 * time.Millisecond,
		ReRegister:     50 * time.Millisecond,
		GossipInterval: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestShardedGridDirectoryConverges boots a 3-shard mesh and checks
// that, with daemons registered only at their owning shard, gossip
// gives every shard (and therefore any client, wherever its login
// lands) the full 3-server directory — and a fleet-wide weather view.
func TestShardedGridDirectoryConverges(t *testing.T) {
	g := startShardedGrid(t, 3)
	defer g.Close()

	if len(g.Shards) != 3 || len(g.ShardAddrs) != 3 {
		t.Fatalf("expected 3 shards, got %d (%v)", len(g.Shards), g.ShardAddrs)
	}

	var cl *client.Client
	retryUntil(t, "login", 10*time.Second, func() error {
		var err error
		cl, err = g.Login("alice", "pw")
		return err
	})
	if len(cl.Shards) != 3 {
		t.Errorf("client shard map: got %v, want 3 addresses", cl.Shards)
	}

	retryUntil(t, "directory convergence", 10*time.Second, func() error {
		servers, err := cl.ListServers(nil)
		if err != nil {
			return err
		}
		if len(servers) != 3 {
			return fmt.Errorf("client sees %d servers, want 3", len(servers))
		}
		return nil
	})

	// Every shard individually: full directory and fleet-wide weather,
	// even though each polls only its own daemons.
	for i, s := range g.Shards {
		i, s := i, s
		retryUntil(t, fmt.Sprintf("shard %d convergence", i), 10*time.Second, func() error {
			listing, err := shardListing(g, i)
			if err != nil {
				return err
			}
			if n := len(listing); n != 3 {
				return fmt.Errorf("shard %d directory has %d servers, want 3", i, n)
			}
			if w := s.Weather(); w.Servers != 3 {
				return fmt.Errorf("shard %d weather sees %d servers, want 3", i, w.Servers)
			}
			return nil
		})
	}
}

// TestShardedGridReadyAtStart: the mesh directory is complete the moment
// Start returns — with a gossip interval no test will live to see, the
// only digests are the ones Start itself pulled after the daemons
// registered.
func TestShardedGridReadyAtStart(t *testing.T) {
	g, err := Start(shardedClusters(), Options{
		Users:          map[string]string{"alice": "pw"},
		Shards:         3,
		GossipInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for i := range g.Shards {
		listing, err := shardListing(g, i)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(listing); n != len(g.Daemons) {
			t.Errorf("shard %d lists %d of %d daemons when Start returns", i, n, len(g.Daemons))
		}
	}
}

// shardListing reads shard i's directory over the wire, on a session
// that shard issued to alice.
func shardListing(g *Grid, i int) ([]protocol.ServerInfo, error) {
	token, err := g.Shards[i].Auth.Login("alice", "pw")
	if err != nil {
		return nil, err
	}
	conn, err := net.Dial("tcp", g.ShardAddrs[i])
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	var listing protocol.ListServersOK
	err = protocol.Call(conn, protocol.TypeListServersReq, protocol.ListServersReq{Token: token}, protocol.TypeListServersOK, &listing)
	return listing.Servers, err
}

// shardedTally counts settled-history records per job across every
// shard's database and sums the clusters' revenue grid-wide.
func shardedTally(g *Grid) (perJob map[string]int, revenue float64) {
	perJob = map[string]int{}
	for _, r := range g.Contracts(10_000) {
		perJob[r.JobID]++
	}
	for _, cl := range g.clusters {
		revenue += g.Revenue(cl.Spec.Name)
	}
	return perJob, revenue
}

// runShardedKillWorkload drives a durable 3-shard grid through two
// placement rounds from four users (users and server names scatter over
// the ring, so settlements routinely cross shards via forwarding).
// With kill >= 0 that shard is crash-stopped after round one — the
// window where finished jobs hold unacknowledged settlements — and
// restarted before round two. Returns per-job settle counts + revenue.
func runShardedKillWorkload(t *testing.T, kill int) (map[string]int, float64) {
	t.Helper()
	g := startShardedGrid(t, 3)
	defer g.Close()

	var jobIDs []string
	placeRound := func(round int) {
		for _, u := range shardedUsers {
			var jobID string
			retryUntil(t, fmt.Sprintf("round %d job for %s", round, u), 30*time.Second, func() error {
				// A fresh login per attempt: after a shard restart the
				// user's session is gone, and a Place retried wholesale
				// runs under a new job ID (the orphaned reservation never
				// starts, so it never settles).
				c, err := g.Login(u, "pw")
				if err != nil {
					return err
				}
				p, err := c.Place(contract(1500), market.LeastCost{})
				if err != nil {
					return err
				}
				if err := c.Start(p); err != nil {
					return err
				}
				jobID = p.JobID
				return nil
			})
			jobIDs = append(jobIDs, jobID)
		}
	}

	placeRound(1)
	if kill >= 0 {
		// Let the short jobs finish so settlements are in flight, then
		// crash the shard. Settles addressed to it (directly or by
		// forwarding) fail retryably into the daemons' durable outboxes.
		time.Sleep(150 * time.Millisecond)
		if err := g.KillShard(kill); err != nil {
			t.Fatalf("kill shard %d: %v", kill, err)
		}
		time.Sleep(100 * time.Millisecond)
		if err := g.RestartShard(kill); err != nil {
			t.Fatalf("restart shard %d: %v", kill, err)
		}
	}
	placeRound(2)

	deadline := time.Now().Add(60 * time.Second)
	for {
		perJob, _ := shardedTally(g)
		done := 0
		for _, id := range jobIDs {
			if perJob[id] >= 1 {
				done++
			}
		}
		if done == len(jobIDs) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d jobs settled: %v", done, len(jobIDs), perJob)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Let any straggling redeliveries land before counting duplicates.
	time.Sleep(100 * time.Millisecond)
	return shardedTally(g)
}

// TestShardedGridKillAnyShardExactlyOnce is the acceptance test for the
// sharded control plane: for EVERY shard of a 3-shard mesh, crashing
// that shard mid-workload must lose no settlements — each job settles
// exactly once and total revenue matches the run where nothing died.
func TestShardedGridKillAnyShardExactlyOnce(t *testing.T) {
	baseJobs, baseRevenue := runShardedKillWorkload(t, -1)
	for id, n := range baseJobs {
		if n != 1 {
			t.Errorf("no-kill run: job %s settled %d times", id, n)
		}
	}
	if baseRevenue == 0 {
		t.Fatal("no-kill run produced no revenue")
	}

	for k := 0; k < 3; k++ {
		k := k
		t.Run(fmt.Sprintf("kill-shard-%d", k), func(t *testing.T) {
			jobs, revenue := runShardedKillWorkload(t, k)
			for id, n := range jobs {
				if n != 1 {
					t.Errorf("job %s settled %d times", id, n)
				}
			}
			if len(jobs) != len(baseJobs) {
				t.Errorf("settled job count: kill=%d baseline=%d", len(jobs), len(baseJobs))
			}
			if revenue != baseRevenue {
				t.Errorf("revenue diverged: kill=%v baseline=%v", revenue, baseRevenue)
			}
		})
	}
}
