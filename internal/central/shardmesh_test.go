package central

import (
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"faucets/internal/accounting"
	"faucets/internal/db"
	"faucets/internal/protocol"
	"faucets/internal/shard"
)

// shardMesh boots n sharded Central Servers on real listeners, ring
// positions bound to the listen addresses; each one's peers are the
// rest of the ring.
func shardMesh(t *testing.T, n int) ([]*Server, *shard.Ring) {
	t.Helper()
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		addrs[i] = l.Addr().String()
	}
	ring := shard.New(addrs)
	servers := make([]*Server, n)
	for i := range servers {
		s := New(accounting.Dollars)
		s.Ring = ring
		s.SelfAddr = addrs[i]
		s.RPCTimeout = 2 * time.Second
		go s.Serve(listeners[i])
		t.Cleanup(s.Close)
		servers[i] = s
	}
	return servers, ring
}

// ownedServerName finds a machine name the given shard owns.
func ownedServerName(t *testing.T, ring *shard.Ring, addr string) string {
	t.Helper()
	for i := 0; i < 256; i++ {
		name := fmt.Sprintf("mesh-%03d", i)
		if ring.OwnerServer(name) == addr {
			return name
		}
	}
	t.Fatalf("no server name hashes to shard %s", addr)
	return ""
}

// ownedUser finds a user the given shard owns (or, negated, does not).
func ownedUser(t *testing.T, ring *shard.Ring, addr string, owns bool) string {
	t.Helper()
	for i := 0; i < 256; i++ {
		u := fmt.Sprintf("mesh-user-%03d", i)
		if (ring.OwnerUser(u) == addr) == owns {
			return u
		}
	}
	t.Fatalf("no user with owner==%s %v", addr, owns)
	return ""
}

// TestGossipRoundMergesDirectoryAndWeather: one explicit gossip round
// gives every shard the full fleet directory and a weather report whose
// fleet counts sum across shards and whose mean multiplier is
// contract-count weighted.
func TestGossipRoundMergesDirectoryAndWeather(t *testing.T) {
	servers, ring := shardMesh(t, 2)
	nameA := ownedServerName(t, ring, servers[0].SelfAddr)
	nameB := ownedServerName(t, ring, servers[1].SelfAddr)
	a := info(nameA, 64, 1024, "synth")
	a.Spec.CostRate = 1 // list price = CPU-seconds, so multiplier = price/cpu
	if err := servers[0].RegisterDaemon(a); err != nil {
		t.Fatal(err)
	}
	if err := servers[1].RegisterDaemon(info(nameB, 32, 512, "synth")); err != nil {
		t.Fatal(err)
	}
	// Shard 1 settles a job that ran on shard 0's server: it prices the
	// multiplier off the cost rate in shard 0's digest, so it needs one.
	pullAll(servers...)
	// One settled contract per shard, with different multipliers, so the
	// merged mean is the weighted average and not either local value.
	settle := func(s *Server, job, user string, price, cpu float64) {
		t.Helper()
		if err := s.Settle(protocol.SettleReq{
			JobID: job, User: user, App: "synth", Server: nameA,
			MinPE: 1, MaxPE: 4, Price: price, CPUSeconds: cpu, HomeCluster: "home",
		}); err != nil {
			t.Fatal(err)
		}
	}
	settle(servers[0], "job-a", ownedUser(t, ring, servers[0].SelfAddr, true), 2.0, 1) // multiplier 2.0
	settle(servers[1], "job-b", ownedUser(t, ring, servers[1].SelfAddr, true), 1.0, 1) // multiplier 1.0

	sentBefore, recvBefore := servers[0].met.gossipSent.Value(), servers[0].met.gossipRecv.Value()
	pullAll(servers...)
	// Shard 0 served one digest (shard 1's pull) and cached one (its own).
	if after := servers[0].met.gossipSent.Value(); after != sentBefore+1 {
		t.Fatalf("gossip sent counter: %d -> %d, want +1", sentBefore, after)
	}
	if after := servers[0].met.gossipRecv.Value(); after != recvBefore+1 {
		t.Fatalf("gossip received counter: %d -> %d, want +1", recvBefore, after)
	}

	for i, s := range servers {
		union := s.appendFederated(nil, nil)
		if len(union) != 2 || union[0].Spec.Name > union[1].Spec.Name {
			t.Fatalf("shard %d directory after gossip: %v", i, union)
		}
		w := s.Weather()
		if w.Servers != 2 || w.TotalPE != 96 {
			t.Fatalf("shard %d merged fleet: %+v", i, w)
		}
		if w.Contracts != 2 {
			t.Fatalf("shard %d merged contracts: %+v", i, w)
		}
		if w.MeanMultiplier < 1.49 || w.MeanMultiplier > 1.51 {
			t.Fatalf("shard %d weighted mean multiplier = %v, want 1.5", i, w.MeanMultiplier)
		}
	}
}

// TestStartGossipPropagatesPeriodically: the background ticker alone —
// no manual rounds — must converge the mesh directory, and Close must
// stop the loop cleanly (the test would leak goroutines otherwise and
// fail under -race via the Cleanup close).
func TestStartGossipPropagatesPeriodically(t *testing.T) {
	servers, ring := shardMesh(t, 2)
	for _, s := range servers {
		s.GossipInterval = 10 * time.Millisecond
		s.StartGossip()
	}
	name := ownedServerName(t, ring, servers[1].SelfAddr)
	if err := servers[1].RegisterDaemon(info(name, 16, 256, "synth")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if union := servers[0].appendFederated(nil, nil); len(union) == 1 && union[0].Spec.Name == name {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background gossip never delivered the directory: %v", servers[0].appendFederated(nil, nil))
		}
		time.Sleep(5 * time.Millisecond)
	}
	// A server with nobody to ask must ignore StartGossip entirely.
	solo := New(accounting.Dollars)
	defer solo.Close()
	solo.StartGossip()
}

// TestForwardSettleReachesOwningShard: a settlement delivered to the
// wrong shard (the daemon's shard, not the user's) is forwarded one hop
// and lands exactly once in the owner's ledger; redelivering the same
// job to either shard stays idempotent.
func TestForwardSettleReachesOwningShard(t *testing.T) {
	servers, ring := shardMesh(t, 2)
	user := ownedUser(t, ring, servers[1].SelfAddr, true) // owned by shard 1
	req := protocol.SettleReq{
		JobID: "fwd-1", User: user, App: "synth", Server: "anywhere",
		MinPE: 1, MaxPE: 2, Price: 0.5, CPUSeconds: 1, HomeCluster: "home",
	}
	// Deliver over the wire to shard 0, which does NOT own the user.
	fwdBefore := servers[0].met.fwdSettles.Value()
	var ok protocol.SettleOK
	err := servers[0].peerRPC().Call(servers[0].SelfAddr, servers[0].RPCTimeout,
		protocol.TypeSettleReq, req, protocol.TypeSettleOK, &ok)
	if err != nil {
		t.Fatal(err)
	}
	if after := servers[0].met.fwdSettles.Value(); after != fwdBefore+1 {
		t.Fatalf("forwarded settle counter: %d -> %d, want +1", fwdBefore, after)
	}
	if !servers[1].DB.Settled("fwd-1") {
		t.Fatal("settlement never reached the owning shard")
	}
	if servers[0].DB.Settled("fwd-1") {
		t.Fatal("non-owner shard recorded the settlement locally")
	}
	// Outbox-style redelivery to the wrong shard again: still one settle.
	if err := servers[0].peerRPC().Call(servers[0].SelfAddr, servers[0].RPCTimeout,
		protocol.TypeSettleReq, req, protocol.TypeSettleOK, &ok); err != nil {
		t.Fatalf("redelivery refused: %v", err)
	}
}

// TestForwardSettleUnreachableOwnerRetryable: when the owning shard is
// down, the forward fails RETRYABLE so the daemon's durable outbox
// keeps redelivering instead of dropping money on the floor.
func TestForwardSettleUnreachableOwnerRetryable(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "127.0.0.1:1" // nothing listens here
	ring := shard.New([]string{l.Addr().String(), dead})
	s := New(accounting.Dollars)
	defer s.Close()
	s.Ring = ring
	s.SelfAddr = l.Addr().String()
	s.RPCTimeout = 200 * time.Millisecond
	go s.Serve(l)

	user := ownedUser(t, ring, dead, true)
	err = s.forwardSettle(protocol.SettleReq{
		JobID: "fwd-dead", User: user, Price: 0.1, CPUSeconds: 1,
	})
	if err == nil {
		t.Fatal("forward to a dead shard succeeded")
	}
	if !protocol.IsRetryable(err) {
		t.Fatalf("forward transport failure must be retryable, got: %v", err)
	}
}

// TestGossipStaleDigestExpires: a peer digest past the staleness window
// (five gossip intervals) stops contributing to both the directory and
// merged weather — the degradation a dead peer should produce. While it
// is fresh, the reply to an OLDER overlapping pull never overwrites it,
// and a newer one — a restarted peer answering the next round — replaces
// it at once, with no window to wait out.
func TestGossipStaleDigestExpires(t *testing.T) {
	const peer = "127.0.0.1:7102"
	s := New(accounting.Dollars)
	defer s.Close()
	s.SetPeers([]string{peer})
	s.GossipInterval = 10 * time.Millisecond // stale after 50ms

	sent := time.Now()
	s.storeDigest(peer, sent, protocol.GossipOK{
		Servers: []protocol.ServerInfo{info("ghost", 100, 1024, "synth")},
		Weather: protocol.WeatherDigest{
			Servers: 1, TotalPE: 100, UsedPE: 1000, // over-reports: utilization must cap at 1
			Contracts: 4, MeanMultiplier: 2.0,
		},
	})
	w := s.Weather()
	if w.Servers != 1 || w.TotalPE != 100 || w.Contracts != 4 || w.MeanMultiplier != 2.0 {
		t.Fatalf("fresh digest not merged: %+v", w)
	}
	if w.GridUtilization != 1 {
		t.Fatalf("utilization not capped at 1: %v", w.GridUtilization)
	}
	if len(s.appendFederated(nil, nil)) != 1 {
		t.Fatalf("fresh digest missing from directory")
	}

	// A pull sent BEFORE the one that fetched the cached digest, whose
	// reply arrives after it, must be dropped.
	recvBefore := s.met.gossipRecv.Value()
	s.storeDigest(peer, sent.Add(-time.Millisecond), protocol.GossipOK{
		Servers: []protocol.ServerInfo{info("older", 8, 128, "synth")},
	})
	if union := s.appendFederated(nil, nil); s.met.gossipRecv.Value() != recvBefore || len(union) != 1 || union[0].Spec.Name != "ghost" {
		t.Fatalf("older overlapping pull overwrote a newer digest: %v", union)
	}

	// The peer restarts and answers the next round: visible immediately.
	s.storeDigest(peer, time.Now(), protocol.GossipOK{
		Servers: []protocol.ServerInfo{info("reborn", 8, 128, "synth")},
	})
	if union := s.appendFederated(nil, nil); len(union) != 1 || union[0].Spec.Name != "reborn" {
		t.Fatalf("restarted peer's digest not served at once: %v", union)
	}

	time.Sleep(60 * time.Millisecond)
	s.invalidateWeather()
	if w := s.Weather(); w.Servers != 0 || w.Contracts != 0 {
		t.Fatalf("expired digest still in weather: %+v", w)
	}
	if union := s.appendFederated(nil, nil); len(union) != 0 {
		t.Fatalf("expired digest still in directory: %v", union)
	}
}

// TestRegisterWrongShardRedirects: a daemon registering at a shard that
// does not own its name gets a NOT_OWNER redirect naming the owner, so
// a mis-configured daemon can find its home without ring flags.
func TestRegisterWrongShardRedirects(t *testing.T) {
	servers, ring := shardMesh(t, 2)
	name := ownedServerName(t, ring, servers[1].SelfAddr)
	var ok protocol.RegisterOK
	err := servers[0].peerRPC().Call(servers[0].SelfAddr, servers[0].RPCTimeout,
		protocol.TypeRegisterReq, protocol.RegisterReq{Info: info(name, 8, 128, "synth")},
		protocol.TypeRegisterOK, &ok)
	if err == nil {
		t.Fatal("wrong-shard register accepted")
	}
	owner, isRedirect := protocol.NotOwnerAddr(err)
	if !isRedirect || owner != servers[1].SelfAddr {
		t.Fatalf("want NOT_OWNER redirect to %s, got: %v", servers[1].SelfAddr, err)
	}
}

// settleMesh boots n in-process shards over a consistent-hash ring, each
// journaling settlements to its own durable WAL. No listeners: every
// settle is routed in-process to the owning shard, the path a ring-aware
// client takes after its first NOT_OWNER redirect, so only the control
// plane's own cost is measured.
func settleMesh(b *testing.B, n int) (*shard.Ring, map[string]*Server) {
	b.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("10.255.0.%d:9", i+1) // ring positions only, never dialed
	}
	ring := shard.New(addrs)
	byAddr := make(map[string]*Server, n)
	for _, addr := range addrs {
		store, err := db.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		s := NewWithDB(accounting.Dollars, store)
		s.Ring = ring // a 1-member ring is deliberately unsharded (the baseline)
		s.SelfAddr = addr
		b.Cleanup(func() { s.Close(); store.Close() })
		byAddr[addr] = s
	}
	// The directory as daemon registration lands it: each name on its
	// owning shard.
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("bench-%02d", i)
		if err := byAddr[ring.OwnerServer(name)].RegisterDaemon(info(name, 64, 1024, "synth")); err != nil {
			b.Fatal(err)
		}
	}
	return ring, byAddr
}

// BenchmarkShardedSettleThroughput is what sharding buys settlement: one
// durable settlement per op against a 1-, 2- and 4-shard mesh, users
// spread across the ring and each request on its owning shard. Settles
// share group fsyncs rather than queue behind one another's, so with
// every shard's WAL on one disk the three read alike (DESIGN §16).
func BenchmarkShardedSettleThroughput(b *testing.B) {
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards_%d", n), func(b *testing.B) {
			ring, byAddr := settleMesh(b, n)
			// Users bucketed by owning shard, so workers are dealt
			// round-robin across shards: the balance thousands of real
			// users would give, with few workers.
			buckets := make(map[string][]string)
			for i := 0; i < 256; i++ {
				u := fmt.Sprintf("u%03d", i)
				buckets[ring.OwnerUser(u)] = append(buckets[ring.OwnerUser(u)], u)
			}
			addrs := ring.Addrs()
			// Each worker is one user's client, stuck to its home shard
			// after the first redirect; oversubscribed so every shard's
			// settle queue stays non-empty.
			b.SetParallelism(16)
			var workers, jobs atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				w := int(workers.Add(1)) - 1
				home := addrs[w%len(addrs)]
				user := buckets[home][(w/len(addrs))%len(buckets[home])]
				s := byAddr[home]
				for pb.Next() {
					err := s.Settle(protocol.SettleReq{
						JobID: fmt.Sprintf("bench-%d", jobs.Add(1)), User: user,
						App: "synth", Server: "bench-00", MinPE: 2, MaxPE: 8,
						Price: 0.001, CPUSeconds: 1, HomeCluster: "home",
					})
					if err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "settles/s")
		})
	}
}
