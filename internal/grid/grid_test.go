package grid

import (
	"net"
	"strings"
	"testing"
	"time"

	"faucets/internal/accounting"
	"faucets/internal/client"
	"faucets/internal/machine"
	"faucets/internal/market"
	"faucets/internal/protocol"
	"faucets/internal/qos"
	"faucets/internal/scheduler"
	"faucets/internal/stage"
)

func spec(name string, pe int, cost float64) machine.Spec {
	return machine.Spec{Name: name, NumPE: pe, MemPerPE: 1024, CPUType: "x86", Speed: 1, CostRate: cost}
}

func threeClusterGrid(t *testing.T, opts Options) *Grid {
	t.Helper()
	if opts.Users == nil {
		opts.Users = map[string]string{"alice": "pw", "bob": "pw2"}
	}
	clusters := []ClusterSpec{
		{Spec: spec("turing", 64, 0.010), Apps: []string{"synth", "namd"}},
		{Spec: spec("lemieux", 128, 0.008), Apps: []string{"synth"}},
		{Spec: spec("tungsten", 32, 0.020), Apps: []string{"synth", "namd", "cfd"}},
	}
	g, err := Start(clusters, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

func contract(work float64) *qos.Contract {
	return &qos.Contract{App: "synth", MinPE: 2, MaxPE: 16, Work: work}
}

// TestEndToEndGrid reproduces the paper's Figure 1 wiring as a live
// system: authenticate → list matching servers → solicit bids → award →
// upload input → start → monitor via AppSpector → download output →
// settlement at the Central Server.
func TestEndToEndGrid(t *testing.T) {
	g := threeClusterGrid(t, Options{})
	cl, err := g.Login("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}

	// Directory filtering (Fig 2 fields: app + processor range).
	servers, err := cl.ListServers(&qos.Contract{App: "namd", MinPE: 48, MaxPE: 64, Work: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(servers) != 1 || servers[0].Spec.Name != "turing" {
		t.Fatalf("filtered servers=%v", servers)
	}
	apps, err := cl.ListApps()
	if err != nil || len(apps) != 3 {
		t.Fatalf("apps=%v err=%v", apps, err)
	}

	// Full placement on the cheapest matching server.
	c := contract(300)
	p, err := cl.Place(c, market.LeastCost{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Server.Spec.Name != "lemieux" {
		t.Fatalf("least cost chose %s, want lemieux", p.Server.Spec.Name)
	}

	input := []byte("coordinates and parameters")
	if err := cl.Upload(p, "in.dat", input); err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(p); err != nil {
		t.Fatal(err)
	}
	st, err := cl.WaitFinished(p, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "finished" {
		t.Fatalf("state=%v", st.State)
	}

	// Output files are downloadable after the run.
	out, err := cl.FetchOutput(p, "result.out")
	if err != nil || !strings.Contains(string(out), "job="+p.JobID) {
		t.Fatalf("output=%q err=%v", out, err)
	}
	// The uploaded input is still staged (the job "used" it).
	in, err := cl.FetchOutput(p, "in.dat")
	if err != nil || string(in) != string(input) {
		t.Fatalf("staged input=%q err=%v", in, err)
	}

	// Settlement reached the Central Server: revenue and history.
	deadline := time.Now().Add(10 * time.Second)
	for g.Central.DB.HistoryLen() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("settlement never reached the central server")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if rev := g.Central.DB.Revenue("lemieux"); rev <= 0 {
		t.Fatalf("revenue=%v", rev)
	}
}

// TestAppSpectorLiveWatch reproduces Figure 3: a client watches a
// running job's utilization and state stream, seeing it through to the
// finished state.
func TestAppSpectorLiveWatch(t *testing.T) {
	g := threeClusterGrid(t, Options{})
	cl, err := g.Login("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	p, err := cl.Place(contract(500), market.LeastCost{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(p); err != nil {
		t.Fatal(err)
	}
	var states []string
	sawUtil := false
	err = cl.Watch(p.JobID, true, func(tm protocol.Telemetry) bool {
		states = append(states, tm.State)
		if tm.Util > 0 {
			sawUtil = true
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(states) == 0 || states[len(states)-1] != "finished" {
		t.Fatalf("states=%v", states)
	}
	if !sawUtil {
		t.Fatal("no utilization samples (the generic Fig 3 section)")
	}
}

func TestWatchRequiresAuth(t *testing.T) {
	g := threeClusterGrid(t, Options{})
	cl, _ := g.Login("alice", "pw")
	p, err := cl.Place(contract(1e6), market.LeastCost{})
	if err != nil {
		t.Fatal(err)
	}
	_ = cl.Start(p)
	// A fresh session with a forged token (Client holds a connection
	// pool, so it must not be copied by value).
	bad := &client.Client{
		CentralAddr:    cl.CentralAddr,
		AppSpectorAddr: cl.AppSpectorAddr,
		User:           cl.User,
		Token:          "forged",
	}
	defer bad.Close()
	err = bad.Watch(p.JobID, true, func(protocol.Telemetry) bool { return true })
	if err == nil {
		t.Fatal("forged token watched a job")
	}
}

func TestLoginFailure(t *testing.T) {
	g := threeClusterGrid(t, Options{})
	if _, err := g.Login("alice", "wrong"); err == nil {
		t.Fatal("wrong password logged in")
	}
	if _, err := g.Login("mallory", "pw"); err == nil {
		t.Fatal("unknown user logged in")
	}
}

func TestBarteringSettlementOverTheWire(t *testing.T) {
	g := threeClusterGrid(t, Options{
		Mode:  accounting.Barter,
		Users: map[string]string{"alice": "pw"},
		Homes: map[string]string{"alice": "turing"},
	})
	// Seed the home cluster with credits so off-home placement settles.
	g.Central.DB.AddCredits("turing", 1e6)
	cl, err := g.Login("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	// Force placement on lemieux (cheapest) — off alice's home cluster.
	p, err := cl.Place(contract(300), market.LeastCost{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Server.Spec.Name == "turing" {
		t.Skip("placement landed on home cluster; no transfer to verify")
	}
	if err := cl.Start(p); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.WaitFinished(p, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		earned, err := cl.Credits(p.Server.Spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		if earned > 0 {
			home, _ := cl.Credits("turing")
			if home >= 1e6 {
				t.Fatalf("home balance did not decrease: %v", home)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("credits never transferred")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestDaemonCrashRemovedFromDirectory(t *testing.T) {
	g := threeClusterGrid(t, Options{})
	cl, _ := g.Login("alice", "pw")
	before, _ := cl.ListServers(nil)
	if len(before) != 3 {
		t.Fatalf("directory=%d", len(before))
	}
	// Kill one daemon and poll: the FS marks it dead (§2: periodic
	// polling refreshes the availability list).
	g.Daemons[0].Close()
	g.Central.PollOnce()
	after, _ := cl.ListServers(nil)
	if len(after) != 2 {
		t.Fatalf("dead daemon still listed: %v", after)
	}
}

func TestPlacementFallsBackWhenBestRefuses(t *testing.T) {
	// The cheap cluster is tiny; a big job's bid round gets no offer
	// from it, so the award lands on a bigger machine.
	clusters := []ClusterSpec{
		{Spec: spec("tiny-cheap", 4, 0.001), Apps: []string{"synth"}},
		{Spec: spec("big-dear", 64, 0.05), Apps: []string{"synth"}},
	}
	g, err := Start(clusters, Options{Users: map[string]string{"alice": "pw"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	cl, _ := g.Login("alice", "pw")
	c := &qos.Contract{App: "synth", MinPE: 16, MaxPE: 32, Work: 100}
	p, err := cl.Place(c, market.LeastCost{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Server.Spec.Name != "big-dear" {
		t.Fatalf("placed on %s", p.Server.Spec.Name)
	}
}

func TestFCFSGridEndToEnd(t *testing.T) {
	clusters := []ClusterSpec{{
		Spec: spec("rigid", 32, 0.01), Apps: []string{"synth"},
		NewScheduler: func(sp machine.Spec, c scheduler.Config) scheduler.Scheduler {
			return scheduler.NewFCFS(sp, c)
		},
	}}
	g, err := Start(clusters, Options{Users: map[string]string{"alice": "pw"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	cl, _ := g.Login("alice", "pw")
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
}

func TestKillJobEndToEnd(t *testing.T) {
	g := threeClusterGrid(t, Options{})
	cl, err := g.Login("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	p, err := cl.Place(contract(1e8), market.LeastCost{}) // effectively endless
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(p); err != nil {
		t.Fatal(err)
	}
	// A stranger cannot kill someone else's job.
	mallory, err := g.Login("bob", "pw2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mallory.Kill(p); err == nil {
		t.Fatal("bob killed alice's job")
	}
	// The owner can.
	reply, err := cl.Kill(p)
	if err != nil {
		t.Fatal(err)
	}
	if reply.State != "killed" {
		t.Fatalf("state=%q", reply.State)
	}
	st, err := cl.Status(p)
	if err != nil || st.State != "killed" {
		t.Fatalf("status=%+v err=%v", st, err)
	}
	// Idempotent: a second kill reports the terminal state.
	again, err := cl.Kill(p)
	if err != nil || again.State != "killed" {
		t.Fatalf("second kill: %+v %v", again, err)
	}
	// The watcher stream ends with the killed state.
	sawKilled := false
	err = cl.Watch(p.JobID, true, func(tm protocol.Telemetry) bool {
		if tm.State == "killed" {
			sawKilled = true
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawKilled {
		t.Fatal("AppSpector never reported the kill")
	}
}

// Failure injection: a daemon dying mid-watch leaves the watcher with a
// broken stream (not a silent hang), and the dead server drops from the
// bidding pool while the survivors keep serving.
func TestDaemonDeathMidJob(t *testing.T) {
	g := threeClusterGrid(t, Options{})
	cl, err := g.Login("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	p, err := cl.Place(contract(1e8), market.LeastCost{}) // long-running
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(p); err != nil {
		t.Fatal(err)
	}
	// Kill the daemon that runs the job.
	for _, d := range g.Daemons {
		if d.Name() == p.Server.Spec.Name {
			d.Close()
		}
	}
	// Status queries now fail with a connection error.
	if _, err := cl.Status(p); err == nil {
		t.Fatal("status succeeded against a dead daemon")
	}
	// The grid still places new jobs on the surviving servers.
	g.Central.PollOnce()
	p2, err := cl.Place(contract(100), market.LeastCost{})
	if err != nil {
		t.Fatal(err)
	}
	if p2.Server.Spec.Name == p.Server.Spec.Name {
		t.Fatal("placement chose the dead server")
	}
	if err := cl.Start(p2); err != nil {
		t.Fatal(err)
	}
	if st, err := cl.WaitFinished(p2, 20*time.Second); err != nil || st.State != "finished" {
		t.Fatalf("survivor failed: %+v %v", st, err)
	}
}

// Failure injection: an interrupted upload resumes from the reported
// offset and still verifies its digest.
func TestUploadResumeAfterOffsetError(t *testing.T) {
	g := threeClusterGrid(t, Options{})
	cl, _ := g.Login("alice", "pw")
	p, err := cl.Place(contract(1e8), market.LeastCost{})
	if err != nil {
		t.Fatal(err)
	}
	// Hand-drive the upload protocol with a deliberate wrong offset.
	conn, err := net.Dial("tcp", p.Server.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	full := []byte("resumable payload 0123456789")
	var up protocol.UploadOK
	err = protocol.Call(conn, protocol.TypeUploadReq, protocol.UploadReq{
		User: cl.User, Token: cl.Token, JobID: p.JobID, Name: "in.dat", Offset: 0, Data: full[:10],
	}, protocol.TypeUploadOK, &up)
	if err != nil || up.Received != 10 {
		t.Fatalf("first chunk: %+v %v", up, err)
	}
	// Wrong offset (simulated retransmission confusion) is rejected.
	err = protocol.Call(conn, protocol.TypeUploadReq, protocol.UploadReq{
		User: cl.User, Token: cl.Token, JobID: p.JobID, Name: "in.dat", Offset: 5, Data: full[5:],
	}, protocol.TypeUploadOK, &up)
	if err == nil {
		t.Fatal("non-contiguous offset accepted")
	}
	// Resume from the correct offset with the final digest.
	err = protocol.Call(conn, protocol.TypeUploadReq, protocol.UploadReq{
		User: cl.User, Token: cl.Token, JobID: p.JobID, Name: "in.dat", Offset: 10, Data: full[10:], Last: true, SHA256: stage.Digest(full),
	}, protocol.TypeUploadOK, &up)
	if err != nil || up.Received != int64(len(full)) {
		t.Fatalf("resume: %+v %v", up, err)
	}
	if err := cl.Start(p); err != nil {
		t.Fatal(err)
	}
	got, err := cl.FetchOutput(p, "in.dat")
	if err != nil || string(got) != string(full) {
		t.Fatalf("staged file corrupt: %q %v", got, err)
	}
}
