package grid

import (
	"errors"
	"net"
	"testing"
	"time"

	"faucets/internal/market"
	"faucets/internal/protocol"
)

// hungAddr starts a listener that accepts connections and never answers
// — the pathological daemon the wire layer must tolerate.
func hungAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			t.Cleanup(func() { conn.Close() })
		}
	}()
	return l.Addr().String()
}

// TestHungDaemonsDoNotStallTheFleet: daemons that accept connections
// but never reply must not delay anyone else's liveness refresh, and
// the healthy part of the grid keeps placing, running, and settling
// jobs end to end.
func TestHungDaemonsDoNotStallTheFleet(t *testing.T) {
	g := threeClusterGrid(t, Options{RPCTimeout: 300 * time.Millisecond})
	// Four hung impostors join the directory alongside the three real
	// clusters.
	for _, name := range []string{"hung1", "hung2", "hung3", "hung4"} {
		info := protocol.ServerInfo{Spec: spec(name, 8, 0.005), Apps: []string{"synth"}, Addr: hungAddr(t)}
		if err := g.Central.RegisterDaemon(info); err != nil {
			t.Fatal(err)
		}
	}

	start := time.Now()
	alive := g.Central.PollOnce()
	elapsed := time.Since(start)
	if alive != 3 {
		t.Fatalf("alive=%d, want the 3 real clusters", alive)
	}
	// Serialized probing would cost ≥ 4×300ms for the hung hosts alone.
	if elapsed >= 1200*time.Millisecond {
		t.Fatalf("poll took %v: hung daemons stalled the refresh", elapsed)
	}

	cl, err := g.Login("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	servers, err := cl.ListServers(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(servers) != 3 {
		t.Fatalf("directory=%v: hung daemons still listed", servers)
	}

	// The healthy fleet still serves the full lifecycle, settlement
	// included.
	p, err := cl.Place(contract(200), market.LeastCost{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(p); err != nil {
		t.Fatal(err)
	}
	if st, err := cl.WaitFinished(p, 20*time.Second); err != nil || st.State != "finished" {
		t.Fatalf("st=%+v err=%v", st, err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for g.Central.DB.HistoryLen() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("settlement never landed with hung daemons present")
		}
		time.Sleep(5 * time.Millisecond)
	}
	recs := g.Central.DB.RecentContracts(nil, 1)
	if r := recs[0]; r.App != "synth" || r.MaxPE != 16 {
		t.Fatalf("settled record lost its contract shape: %+v", r)
	}
}

// TestStrayHandshakeFrameGetsErrorReply: connections carry no handshake,
// so a peer that opens with one sends a frame type no handler knows.
// Every server loop must answer it with an error frame, promptly, and
// leave the connection usable. The same goes for a frame type that once
// existed: the daemon no longer knows the removed slate solicit.
func TestStrayHandshakeFrameGetsErrorReply(t *testing.T) {
	g := threeClusterGrid(t, Options{})
	for _, tc := range []struct{ component, addr, typ string }{
		{"central", g.CentralAddr, "hello"},
		{"daemon", g.daemonAddrs[0], "hello"},
		{"appspector", g.AppSpectorAddr, "hello"},
		{"daemon-removed-type", g.daemonAddrs[0], "bid_batch_req"},
	} {
		t.Run(tc.component, func(t *testing.T) {
			conn, err := protocol.Dial(tc.addr, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			for i := 0; i < 2; i++ { // twice: the refusal must not close or wedge the conn
				err = protocol.CallTimeout(conn, time.Second, tc.typ, nil, tc.typ+"_ok", nil)
				var remote *protocol.RemoteError
				if !errors.As(err, &remote) {
					t.Fatalf("attempt %d: err = %v, want an error frame (RemoteError)", i, err)
				}
			}
		})
	}
}
