package central

import (
	"net"
	"testing"
	"time"

	"faucets/internal/accounting"
	"faucets/internal/db"
	"faucets/internal/protocol"
	"faucets/internal/qos"
)

// federate boots n Central Servers, fully meshed. Nothing gossips on a
// timer: tests call pullAll once the directories they care about are
// registered.
func federate(t *testing.T, n int) ([]*Server, []string) {
	t.Helper()
	servers := make([]*Server, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		servers[i] = New(accounting.Dollars)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = l.Addr().String()
		go servers[i].Serve(l)
		t.Cleanup(servers[i].Close)
	}
	for i, s := range servers {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		s.SetPeers(peers)
	}
	return servers, addrs
}

// pullAll runs one gossip round on every server.
func pullAll(servers ...*Server) {
	for _, s := range servers {
		s.GossipOnce()
	}
}

func TestFederatedDirectoryUnion(t *testing.T) {
	servers, _ := federate(t, 3)
	_ = servers[0].RegisterDaemon(info("alpha", 64, 1024, "synth"))
	_ = servers[1].RegisterDaemon(info("beta", 128, 2048, "synth"))
	_ = servers[2].RegisterDaemon(info("gamma", 32, 512, "synth"))
	pullAll(servers...)

	union := servers[0].appendFederated(nil, nil)
	if len(union) != 3 {
		t.Fatalf("union=%d servers: %v", len(union), union)
	}
	if union[0].Spec.Name != "alpha" || union[1].Spec.Name != "beta" || union[2].Spec.Name != "gamma" {
		t.Fatalf("union order: %v", union)
	}
	// Filters apply across the federation.
	big := servers[2].appendFederated(nil, &qos.Contract{App: "synth", MinPE: 100, MaxPE: 128, Work: 1})
	if len(big) != 1 || big[0].Spec.Name != "beta" {
		t.Fatalf("federated filter: %v", big)
	}
}

func TestFederationDeduplicatesByName(t *testing.T) {
	servers, _ := federate(t, 2)
	// The same compute server registered with both peers (e.g. during a
	// failover) appears once, with the local entry winning.
	local := info("dup", 64, 1024)
	local.Addr = "local:1"
	remote := info("dup", 64, 1024)
	remote.Addr = "remote:1"
	_ = servers[0].RegisterDaemon(local)
	_ = servers[1].RegisterDaemon(remote)
	pullAll(servers...)
	union := servers[0].appendFederated(nil, nil)
	if len(union) != 1 {
		t.Fatalf("union=%v", union)
	}
	if union[0].Addr != "local:1" {
		t.Fatalf("local entry must win: %v", union[0].Addr)
	}
}

func TestFederationDegradesWhenPeerDown(t *testing.T) {
	s := New(accounting.Dollars)
	defer s.Close()
	_ = s.RegisterDaemon(info("solo", 8, 512))
	s.SetPeers([]string{"127.0.0.1:1"}) // nothing listens here
	start := time.Now()
	s.GossipOnce()
	union := s.appendFederated(nil, nil)
	if len(union) != 1 || union[0].Spec.Name != "solo" {
		t.Fatalf("union=%v", union)
	}
	if time.Since(start) > 8*time.Second {
		t.Fatal("dead peer stalled the query")
	}
}

func TestClientSeesFederationOverTheWire(t *testing.T) {
	servers, addrs := federate(t, 2)
	_ = servers[0].Auth.AddUser("alice", "pw", "")
	_ = servers[0].RegisterDaemon(info("near", 64, 1024))
	_ = servers[1].RegisterDaemon(info("far", 64, 1024))
	pullAll(servers...)

	conn, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var ok protocol.AuthOK
	if err := protocol.Call(conn, protocol.TypeAuthReq, protocol.AuthReq{User: "alice", Password: "pw"}, protocol.TypeAuthOK, &ok); err != nil {
		t.Fatal(err)
	}
	var ls protocol.ListServersOK
	if err := protocol.Call(conn, protocol.TypeListServersReq, protocol.ListServersReq{Token: ok.Token}, protocol.TypeListServersOK, &ls); err != nil {
		t.Fatal(err)
	}
	if len(ls.Servers) != 2 {
		t.Fatalf("client saw %d servers, want the 2-server federation: %v", len(ls.Servers), ls.Servers)
	}
}

// TestGossipReplyIsLocalOnly: a gossip_req answers with the local
// directory and local weather only — even when the answering server
// holds its own peers' digests — so gossip never recurses and fleets are
// never counted twice.
func TestGossipReplyIsLocalOnly(t *testing.T) {
	servers, addrs := federate(t, 2)
	_ = servers[0].RegisterDaemon(info("elsewhere", 64, 1024))
	_ = servers[1].RegisterDaemon(info("remote-only", 8, 512))
	pullAll(servers...)
	if n := len(servers[1].appendFederated(nil, nil)); n != 2 {
		t.Fatalf("server 1 should hold merged state before it is asked: %d entries", n)
	}
	conn, err := net.Dial("tcp", addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var d protocol.GossipOK
	if err := protocol.Call(conn, protocol.TypeGossipReq, protocol.GossipReq{}, protocol.TypeGossipOK, &d); err != nil {
		t.Fatal(err)
	}
	if len(d.Servers) != 1 || d.Servers[0].Spec.Name != "remote-only" {
		t.Fatalf("digest directory: %v", d.Servers)
	}
	if d.Weather.Servers != 1 || d.Weather.TotalPE != 8 {
		t.Fatalf("digest weather is not local-only: %+v", d.Weather)
	}
}

// TestFederatedWeatherSumsPeers: grid weather covers the federation on
// plain -peers servers too — fleets add up across Central Servers.
func TestFederatedWeatherSumsPeers(t *testing.T) {
	servers, _ := federate(t, 2)
	_ = servers[0].RegisterDaemon(info("near", 64, 1024))
	_ = servers[1].RegisterDaemon(info("far", 32, 512))
	if w := servers[0].Weather(); w.Servers != 1 || w.TotalPE != 64 {
		t.Fatalf("weather before any pull: %+v", w)
	}
	pullAll(servers...)
	for i, s := range servers {
		if w := s.Weather(); w.Servers != 2 || w.TotalPE != 96 {
			t.Fatalf("server %d weather after gossip: %+v", i, w)
		}
	}
}

// TestPushedDirectoryFramesChangeNothing: a server only stores what it
// fetched from an address in its own peer list. Frames that try to push
// directory entries at it — the old gossip_req shape, a peer_list_req —
// are ignored or refused, and its directory does not move.
func TestPushedDirectoryFramesChangeNothing(t *testing.T) {
	servers, addrs := federate(t, 2)
	_ = servers[0].RegisterDaemon(info("honest", 8, 512))
	conn, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	forged := struct {
		From    string                `json:"from"`
		Seq     uint64                `json:"seq"`
		Servers []protocol.ServerInfo `json:"servers"`
	}{From: addrs[1], Seq: 1 << 40, Servers: []protocol.ServerInfo{info("forged", 4096, 1024)}}
	var d protocol.GossipOK
	if err := protocol.Call(conn, protocol.TypeGossipReq, forged, protocol.TypeGossipOK, &d); err != nil {
		t.Fatal(err)
	}
	if len(d.Servers) != 1 || d.Servers[0].Spec.Name != "honest" {
		t.Fatalf("a pushed body changed the reply: %v", d.Servers)
	}
	var ls protocol.ListServersOK
	if err := protocol.Call(conn, "peer_list_req", forged, protocol.TypeListServersOK, &ls); err == nil {
		t.Fatalf("peer_list_req still answered: %v", ls.Servers)
	}
	if union := servers[0].appendFederated(nil, nil); len(union) != 1 || union[0].Spec.Name != "honest" {
		t.Fatalf("pushed frames reached the directory: %v", union)
	}
}

// TestFederatedPeerRestartRecovery: a durable peer that crashes drops
// out of the federation union once its digest expires; restarted on the
// same address from its state directory it is back after one pull, with
// its accounts, history, and settled-job marks intact, and still
// deduplicates redelivered settlements. The peering is one-directional
// (s0 pulls, the peer never learns s0's address): that is all pull
// needs.
func TestFederatedPeerRestartRecovery(t *testing.T) {
	dir := t.TempDir()

	s0 := New(accounting.Dollars)
	defer s0.Close()
	s0.GossipInterval = 40 * time.Millisecond // digests expire after 200ms
	l0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s0.Serve(l0)

	store, err := db.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := NewWithDB(accounting.Dollars, store)
	l1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peerAddr := l1.Addr().String()
	go s1.Serve(l1)
	s0.SetPeers([]string{peerAddr})

	_ = s0.RegisterDaemon(info("near", 64, 1024, "synth"))
	_ = s1.RegisterDaemon(info("far", 64, 1024, "synth"))
	req := settleReq("j-fed", 5)
	req.Server = "far"
	if err := s1.Settle(req); err != nil {
		t.Fatal(err)
	}
	s0.GossipOnce()
	if union := s0.appendFederated(nil, nil); len(union) != 2 {
		t.Fatalf("pre-crash union=%v", union)
	}

	// Crash the peer: pulls fail, its digest ages out, and the union
	// degrades to the local view.
	s1.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	s0.GossipOnce()
	time.Sleep(250 * time.Millisecond)
	if union := s0.appendFederated(nil, nil); len(union) != 1 || union[0].Spec.Name != "near" {
		t.Fatalf("degraded union=%v", union)
	}

	// Restart on the same address from the same state directory. The
	// listener may need a moment while the dead socket drains.
	store2, err := db.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewWithDB(accounting.Dollars, store2)
	defer s2.Close()
	defer store2.Close()
	var l2 net.Listener
	deadline := time.Now().Add(5 * time.Second)
	for {
		l2, err = net.Listen("tcp", peerAddr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("relisten %s: %v", peerAddr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	go s2.Serve(l2)
	// The daemon's re-register heartbeat repopulates the directory.
	_ = s2.RegisterDaemon(info("far", 64, 1024, "synth"))

	s0.GossipOnce() // one round, no waiting out a restart window
	if union := s0.appendFederated(nil, nil); len(union) != 2 {
		t.Fatalf("post-restart union=%v", union)
	}
	if rev := s2.DB.Revenue("far"); rev != 5 {
		t.Fatalf("peer revenue lost across restart: %v", rev)
	}
	if s2.DB.HistoryLen() != 1 {
		t.Fatalf("peer history lost across restart: %d", s2.DB.HistoryLen())
	}
	// A settlement redelivered to the recovered peer is a duplicate.
	if err := s2.Settle(req); err != nil {
		t.Fatal(err)
	}
	if rev := s2.DB.Revenue("far"); rev != 5 || s2.DB.HistoryLen() != 1 {
		t.Fatalf("recovered peer re-applied a settled job: rev=%v hist=%d", rev, s2.DB.HistoryLen())
	}
}

func TestFederatedVerification(t *testing.T) {
	servers, addrs := federate(t, 2)
	// Alice's account lives on server 0 only.
	_ = servers[0].Auth.AddUser("alice", "pw", "")
	token, err := servers[0].Auth.Login("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	// Server 1 does not know alice locally…
	if err := servers[1].Auth.VerifyUser("alice", token); err == nil {
		t.Fatal("server 1 should not know alice locally")
	}
	// …but a daemon attached to it relays her credentials and the peer
	// vouches for her.
	conn, err := net.Dial("tcp", addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var ok protocol.VerifyOK
	if err := protocol.Call(conn, protocol.TypeVerifyReq, protocol.VerifyReq{User: "alice", Token: token}, protocol.TypeVerifyOK, &ok); err != nil {
		t.Fatalf("federated verification failed: %v", err)
	}
	// A bogus token is rejected everywhere.
	if err := protocol.Call(conn, protocol.TypeVerifyReq, protocol.VerifyReq{User: "alice", Token: "forged"}, protocol.TypeVerifyOK, &ok); err == nil {
		t.Fatal("forged token verified via federation")
	}
}
