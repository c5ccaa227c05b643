package client

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"faucets/internal/accounting"
	"faucets/internal/central"
	"faucets/internal/daemon"
	"faucets/internal/health"
	"faucets/internal/machine"
	"faucets/internal/market"
	"faucets/internal/protocol"
	"faucets/internal/qos"
	"faucets/internal/scheduler"
)

// testbed boots a Central Server and one daemon for client tests.
func testbed(t *testing.T) (fs *central.Server, cl *Client, fdAddr string) {
	t.Helper()
	fs = central.New(accounting.Dollars)
	if err := fs.Auth.AddUser("alice", "pw", ""); err != nil {
		t.Fatal(err)
	}
	fsl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go fs.Serve(fsl)
	t.Cleanup(fs.Close)

	spec := machine.Spec{Name: "box", NumPE: 32, MemPerPE: 2048, CPUType: "x86", Speed: 1, CostRate: 0.01}
	d, err := daemon.New(daemon.Config{
		Info:        protocol.ServerInfo{Spec: spec, Apps: []string{"synth"}},
		Scheduler:   scheduler.NewEquipartition(spec, scheduler.Config{}),
		CentralAddr: fsl.Addr().String(),
		TimeScale:   1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	dl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(dl); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)

	cl, err = Login(fsl.Addr().String(), "alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	return fs, cl, dl.Addr().String()
}

func TestLoginFailures(t *testing.T) {
	fs := central.New(accounting.Dollars)
	_ = fs.Auth.AddUser("alice", "pw", "")
	l, _ := net.Listen("tcp", "127.0.0.1:0")
	go fs.Serve(l)
	t.Cleanup(fs.Close)
	if _, err := Login(l.Addr().String(), "alice", "bad"); err == nil {
		t.Fatal("wrong password accepted")
	}
	if _, err := Login("127.0.0.1:1", "alice", "pw"); err == nil {
		t.Fatal("dead address accepted")
	}
}

// TestCentralOutageOpensNoBreaker: breakers judge daemons only. A
// Central Server outage that fails every attempt must not open a
// breaker that keeps refusing the directory once a fresh server
// listens on the same address.
func TestCentralOutageOpensNoBreaker(t *testing.T) {
	serve := func(l net.Listener) *central.Server {
		fs := central.New(accounting.Dollars)
		if err := fs.Auth.AddUser("alice", "pw", ""); err != nil {
			t.Fatal(err)
		}
		go fs.Serve(l)
		t.Cleanup(fs.Close)
		return fs
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	fs := serve(l)
	cl, err := Login(addr, "alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Breakers = health.NewSet(health.Options{Threshold: 1, Cooldown: time.Hour})
	if _, err := cl.ListServers(nil); err != nil {
		t.Fatal(err)
	}

	fs.Close() // the Central Server goes down...
	if _, err := cl.ListServers(nil); err == nil {
		t.Fatal("directory read succeeded with no Central Server listening")
	}
	l, err = net.Listen("tcp", addr) // ...and a fresh one comes back
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	serve(l)
	if _, err := cl.ListServers(nil); err != nil {
		t.Fatalf("directory read after the restart: %v (breaker %v)", err, cl.Breakers.State(addr))
	}
}

func TestNewJobIDUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := NewJobID()
		if !strings.HasPrefix(id, "job-") || seen[id] {
			t.Fatalf("bad or duplicate id %q", id)
		}
		seen[id] = true
	}
}

func TestPlaceValidation(t *testing.T) {
	_, cl, _ := testbed(t)
	bad := &qos.Contract{App: "", MinPE: 1, MaxPE: 1, Work: 1}
	if _, err := cl.Place(bad, nil); err == nil {
		t.Fatal("invalid contract placed")
	}
}

func TestPlaceNoServers(t *testing.T) {
	_, cl, _ := testbed(t)
	// No registered server can run 10k processors.
	c := &qos.Contract{App: "synth", MinPE: 10000, MaxPE: 10000, Work: 1}
	_, err := cl.Place(c, nil)
	if !errors.Is(err, ErrNoServers) {
		t.Fatalf("err=%v", err)
	}
}

func TestPlaceDefaultsCriterion(t *testing.T) {
	_, cl, _ := testbed(t)
	c := &qos.Contract{App: "synth", MinPE: 1, MaxPE: 8, Work: 50}
	p, err := cl.Place(c, nil) // nil criterion → least cost
	if err != nil {
		t.Fatal(err)
	}
	if p.Server.Spec.Name != "box" || p.JobID == "" {
		t.Fatalf("placement=%+v", p)
	}
}

func TestUploadChunking(t *testing.T) {
	_, cl, _ := testbed(t)
	cl.UploadChunk = 64 // force many chunks
	c := &qos.Contract{App: "synth", MinPE: 1, MaxPE: 8, Work: 1e7}
	p, err := cl.Place(c, market.LeastCost{})
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("0123456789abcdef"), 100) // 1600 bytes → 25 chunks
	if err := cl.Upload(p, "big.dat", data); err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(p); err != nil {
		t.Fatal(err)
	}
	got, err := cl.FetchOutput(p, "big.dat")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip lost data: %d vs %d bytes", len(got), len(data))
	}
}

func TestFetchOutputMissingFile(t *testing.T) {
	_, cl, _ := testbed(t)
	c := &qos.Contract{App: "synth", MinPE: 1, MaxPE: 8, Work: 1e7}
	p, err := cl.Place(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(p); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.FetchOutput(p, "does-not-exist"); err == nil {
		t.Fatal("missing file fetched")
	}
}

func TestWaitFinishedTimeout(t *testing.T) {
	_, cl, _ := testbed(t)
	c := &qos.Contract{App: "synth", MinPE: 1, MaxPE: 2, Work: 1e9} // runs ~forever
	p, err := cl.Place(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(p); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.WaitFinished(p, 50*time.Millisecond); err == nil {
		t.Fatal("timeout not reported")
	}
}

func TestWatchWithoutAppSpector(t *testing.T) {
	_, cl, _ := testbed(t)
	if err := cl.Watch("job", true, nil); err == nil {
		t.Fatal("watch without AppSpector address succeeded")
	}
}

func TestStatusAfterFullRun(t *testing.T) {
	_, cl, _ := testbed(t)
	c := &qos.Contract{App: "synth", MinPE: 2, MaxPE: 16, Work: 100}
	p, err := cl.Place(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Attempts < 1 {
		t.Fatalf("attempts=%d", p.Attempts)
	}
	if err := cl.Start(p); err != nil {
		t.Fatal(err)
	}
	st, err := cl.WaitFinished(p, 20*time.Second)
	if err != nil || st.State != "finished" {
		t.Fatalf("st=%+v err=%v", st, err)
	}
	if st.Progress < 0.999 {
		t.Fatalf("progress=%v", st.Progress)
	}
}

func TestListAppsAndCredits(t *testing.T) {
	fs, cl, _ := testbed(t)
	apps, err := cl.ListApps()
	if err != nil || len(apps) != 1 || apps[0] != "synth" {
		t.Fatalf("apps=%v err=%v", apps, err)
	}
	fs.DB.AddCredits("box", 77)
	credits, err := cl.Credits("box")
	if err != nil || credits != 77 {
		t.Fatalf("credits=%v err=%v", credits, err)
	}
}

// TestClientBoundedByRPCTimeout: a server that accepts connections but
// never answers must cost the client at most the configured deadline
// per attempt — login, directory reads, and status queries all return
// instead of hanging.
func TestClientBoundedByRPCTimeout(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// Hold accepted conns open and never reply.
	var mu sync.Mutex
	var conns []net.Conn
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
		}
	}()
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	}()
	addr := l.Addr().String()

	start := time.Now()
	if _, err := LoginTimeout(addr, "alice", "pw", 100*time.Millisecond); err == nil {
		t.Fatal("login against a hung server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("login stalled %v despite the deadline", elapsed)
	}

	cl := &Client{CentralAddr: addr, Token: "tok", RPCTimeout: 100 * time.Millisecond}
	start = time.Now()
	if _, err := cl.ListServers(nil); err == nil {
		t.Fatal("list against a hung server succeeded")
	}
	// Three retry attempts plus jittered backoff still stay bounded.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("list stalled %v despite deadline and bounded retry", elapsed)
	}
	p := &Placement{JobID: "j"}
	p.Server.Addr = addr
	if _, err := cl.Status(p); err == nil {
		t.Fatal("status against a hung daemon succeeded")
	}
}

func TestClientKill(t *testing.T) {
	_, cl, _ := testbed(t)
	p, err := cl.Place(&qos.Contract{App: "synth", MinPE: 1, MaxPE: 8, Work: 1e8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(p); err != nil {
		t.Fatal(err)
	}
	reply, err := cl.Kill(p)
	if err != nil || reply.State != "killed" {
		t.Fatalf("kill: %+v %v", reply, err)
	}
}
