package central

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"faucets/internal/accounting"
	"faucets/internal/protocol"
	"faucets/internal/shard"
)

// TestDirectoryReadNeverDialsPeers: the only peer is a listener that
// accepts and never answers, and a pull from it is hanging in the
// background. Directory and weather reads answer from the local view at
// once: no read path waits on a peer.
func TestDirectoryReadNeverDialsPeers(t *testing.T) {
	s := New(accounting.Dollars)
	defer s.Close()
	s.RPCTimeout = 2 * time.Second
	if err := s.RegisterDaemon(info("local", 8, 512)); err != nil {
		t.Fatal(err)
	}
	s.SetPeers([]string{hungListener(t)})
	s.StartGossip()

	start := time.Now()
	out := s.FederatedServers(nil)
	w := s.Weather()
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Fatalf("read took %v, a peer was waited on", elapsed)
	}
	if len(out) != 1 || out[0].Spec.Name != "local" || w.Servers != 1 {
		t.Fatalf("directory = %v, weather = %+v, want the local view", out, w)
	}
}

// TestVerifyViaPeersFirstPositiveWins: with one peer stalled (accepts
// and never answers) and one peer that vouches, the concurrent fan-out
// must return true as soon as the positive answer lands — not after the
// stalled peer's full RPC timeout, which is what the old sequential
// walk would cost when the stalled peer sorted first.
func TestVerifyViaPeersFirstPositiveWins(t *testing.T) {
	// The stalled peer: accepts connections, never writes a byte.
	stall, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stall.Close()
	go func() {
		for {
			conn, err := stall.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()

	// The vouching peer: a real server that knows alice.
	good := New(accounting.Dollars)
	defer good.Close()
	_ = good.Auth.AddUser("alice", "pw", "")
	token, err := good.Auth.Login("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	gl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go good.Serve(gl)

	s := New(accounting.Dollars)
	defer s.Close()
	s.RPCTimeout = time.Second
	// Stalled peer listed FIRST: a sequential walk would burn the full
	// timeout before ever asking the good peer.
	s.SetPeers([]string{stall.Addr().String(), gl.Addr().String()})

	start := time.Now()
	if !s.verifyViaPeers("alice", token) {
		t.Fatal("good peer's vouch was lost")
	}
	if elapsed := time.Since(start); elapsed > s.RPCTimeout/2 {
		t.Fatalf("first positive took %v — the fan-out waited on the stalled peer", elapsed)
	}
	// A bad token is refused by the good peer and times out on the
	// stalled one: overall false, bounded by ONE timeout (they overlap).
	if s.verifyViaPeers("alice", "forged") {
		t.Fatal("forged token verified")
	}
}

// TestVerifyViaPeersBreakerSkipsOpenPeer: a peer whose breaker is open
// is skipped without any wire traffic (the skip counter moves), and a
// verify where EVERY peer is skipped returns false immediately.
func TestVerifyViaPeersBreakerSkipsOpenPeer(t *testing.T) {
	s := New(accounting.Dollars)
	defer s.Close()
	s.BreakerThreshold = 1
	s.BreakerCooldown = time.Hour // stays open for the whole test
	s.RPCTimeout = 200 * time.Millisecond
	dead := "127.0.0.1:1" // nothing listens here
	s.SetPeers([]string{dead})

	// Open the breaker the way production does: recorded failures.
	brk := s.probeBreakers()
	for i := 0; i < 10 && brk.Allow(dead); i++ {
		brk.Record(dead, s.RPCTimeout, errors.New("connection refused"))
	}
	if brk.Allow(dead) {
		t.Fatal("breaker never opened despite repeated failures")
	}

	before := s.met.probeSkips.Value()
	start := time.Now()
	if s.verifyViaPeers("alice", "tok") {
		t.Fatal("verify true with every peer skipped")
	}
	if time.Since(start) > 50*time.Millisecond {
		t.Fatal("all-skipped verify should not touch the wire")
	}
	if after := s.met.probeSkips.Value(); after != before+1 {
		t.Fatalf("probe skip counter: %d -> %d, want +1", before, after)
	}
}

// TestShardedDirectoryDedupLocalWins: the union dedups by name on a
// sharded mesh exactly as between plain peers — a server registered
// both locally and in a peer's digest (daemon failover mid-gossip)
// appears once, with the local registration's address winning.
func TestShardedDirectoryDedupLocalWins(t *testing.T) {
	ring := shard.New([]string{"127.0.0.1:7001", "127.0.0.1:7002"})
	s := New(accounting.Dollars)
	defer s.Close()
	s.Ring = ring
	s.SelfAddr = "127.0.0.1:7001"

	local := info("dup", 64, 1024)
	local.Addr = "local:1"
	_ = s.RegisterDaemon(local)

	remoteDup := info("dup", 64, 1024)
	remoteDup.Addr = "remote:1"
	s.storeDigest("127.0.0.1:7002", time.Now(), protocol.GossipOK{
		Servers: []protocol.ServerInfo{remoteDup, info("other", 32, 512)},
	})

	union := s.FederatedServers(nil)
	if len(union) != 2 {
		t.Fatalf("union=%v", union)
	}
	if union[0].Spec.Name != "dup" || union[0].Addr != "local:1" {
		t.Fatalf("local entry must win the dedup: %+v", union[0])
	}
	if union[1].Spec.Name != "other" {
		t.Fatalf("remote-only entry lost: %v", union)
	}
}

// TestFederationPartitionedPeerConcurrent hammers the federated paths
// from many goroutines while one peer is partitioned away: gossip
// rounds, directory unions (never below the reachable membership) and
// verifies interleave with no deadlock and no data race (this test is in
// the -race CI job).
func TestFederationPartitionedPeerConcurrent(t *testing.T) {
	servers, _ := federate(t, 3)
	_ = servers[0].RegisterDaemon(info("alpha", 64, 1024))
	_ = servers[1].RegisterDaemon(info("beta", 64, 1024))
	_ = servers[2].RegisterDaemon(info("gamma", 64, 1024))
	for _, s := range servers {
		s.RPCTimeout = 500 * time.Millisecond
	}
	pullAll(servers...)

	// Partition server 2 away mid-run.
	servers[2].Close()

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				servers[0].GossipOnce()
				union := servers[0].FederatedServers(nil)
				if len(union) < 2 {
					errs <- fmt.Errorf("union shrank below reachable membership: %v", union)
					return
				}
				if servers[0].verifyViaPeers("nobody", "tok") {
					errs <- errors.New("verify vouched for an unknown user")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
