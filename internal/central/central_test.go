package central

import (
	"errors"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"faucets/internal/accounting"
	"faucets/internal/db"
	"faucets/internal/machine"
	"faucets/internal/protocol"
	"faucets/internal/qos"
)

func info(name string, pe, mem int, apps ...string) protocol.ServerInfo {
	return protocol.ServerInfo{
		Spec: machine.Spec{Name: name, NumPE: pe, MemPerPE: mem, CPUType: "x86", Speed: 1, CostRate: 0.01},
		Addr: "127.0.0.1:1", Apps: apps,
	}
}

func TestRegisterAndFilter(t *testing.T) {
	s := New(accounting.Dollars)
	defer s.Close()
	if err := s.RegisterDaemon(info("small", 8, 512, "namd")); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterDaemon(info("big", 1024, 4096, "namd", "lu")); err != nil {
		t.Fatal(err)
	}
	all := s.Servers(nil)
	if len(all) != 2 {
		t.Fatalf("directory=%v", all)
	}
	// Static filter: processor count.
	big := s.Servers(&qos.Contract{App: "namd", MinPE: 100, MaxPE: 200, Work: 1})
	if len(big) != 1 || big[0].Spec.Name != "big" {
		t.Fatalf("PE filter: %v", big)
	}
	// Static filter: memory.
	mem := s.Servers(&qos.Contract{App: "namd", MinPE: 1, MaxPE: 1, Work: 1, MemPerPE: 1024})
	if len(mem) != 1 || mem[0].Spec.Name != "big" {
		t.Fatalf("memory filter: %v", mem)
	}
	// Static filter: exported applications.
	lu := s.Servers(&qos.Contract{App: "lu", MinPE: 1, MaxPE: 1, Work: 1})
	if len(lu) != 1 || lu[0].Spec.Name != "big" {
		t.Fatalf("app filter: %v", lu)
	}
}

func TestRegisterRejectsBadSpec(t *testing.T) {
	s := New(accounting.Dollars)
	defer s.Close()
	bad := info("x", 0, 1)
	if err := s.RegisterDaemon(bad); err == nil {
		t.Fatal("invalid spec registered")
	}
}

func TestHomeDefaultsToName(t *testing.T) {
	s := New(accounting.Dollars)
	defer s.Close()
	_ = s.RegisterDaemon(info("alpha", 8, 512))
	got := s.Servers(nil)
	if got[0].Home != "alpha" {
		t.Fatalf("home=%q", got[0].Home)
	}
}

func TestLivenessFiltering(t *testing.T) {
	s := New(accounting.Dollars)
	defer s.Close()
	_ = s.RegisterDaemon(info("a", 8, 512))
	_ = s.RegisterDaemon(info("b", 8, 512))
	s.MarkDead("a")
	live := s.Servers(nil)
	if len(live) != 1 || live[0].Spec.Name != "b" {
		t.Fatalf("live=%v", live)
	}
	s.MarkSeen("a", protocol.PollOK{UsedPE: 4})
	if len(s.Servers(nil)) != 2 {
		t.Fatal("revived server still filtered")
	}
}

func TestStaleEntriesFiltered(t *testing.T) {
	s := New(accounting.Dollars)
	defer s.Close()
	s.DeadAfter = time.Millisecond
	_ = s.RegisterDaemon(info("old", 8, 512))
	time.Sleep(5 * time.Millisecond)
	if len(s.Servers(nil)) != 0 {
		t.Fatal("stale server still listed")
	}
}

func TestAppsUnion(t *testing.T) {
	s := New(accounting.Dollars)
	defer s.Close()
	_ = s.RegisterDaemon(info("a", 8, 512, "namd", "lu"))
	_ = s.RegisterDaemon(info("b", 8, 512, "lu", "cfd"))
	apps := s.Apps()
	want := []string{"cfd", "lu", "namd"}
	if len(apps) != 3 {
		t.Fatalf("apps=%v", apps)
	}
	for i := range want {
		if apps[i] != want[i] {
			t.Fatalf("apps=%v want %v", apps, want)
		}
	}
}

// The history row's multiplier is what the winner bid: price over list
// price, and list price is CPU-seconds × the executing server's cost rate
// (bidding.Price). This test used to pin price/CPU-seconds = 0.1, which is
// the multiplier times big's cost rate — the number the live grid booked
// and gridsim never did.
func TestSettleRecordsHistory(t *testing.T) {
	s := New(accounting.Dollars)
	defer s.Close()
	_ = s.RegisterDaemon(info("big", 1000, 512)) // cost rate 0.01
	err := s.Settle(protocol.SettleReq{JobID: "j1", User: "u", Server: "big", Price: 42, CPUSeconds: 420})
	if err != nil {
		t.Fatal(err)
	}
	if s.DB.HistoryLen() != 1 {
		t.Fatal("no history row")
	}
	if s.DB.Revenue("big") != 42 {
		t.Fatalf("revenue=%v", s.DB.Revenue("big"))
	}
	recs := s.DB.RecentContracts(nil, 1)
	if math.Abs(recs[0].Multiplier-10) > 1e-9 {
		t.Fatalf("multiplier=%v, want price/(cpuseconds × cost rate)=10", recs[0].Multiplier)
	}
	// A server this Central Server was never told of: the money is booked
	// all the same, the multiplier is unknown and recorded as 0.
	if err := s.Settle(protocol.SettleReq{JobID: "j2", User: "u", Server: "ghost", Price: 7, CPUSeconds: 70}); err != nil {
		t.Fatal(err)
	}
	if recs = s.DB.RecentContracts(nil, 1); s.DB.Revenue("ghost") != 7 || recs[0].Multiplier != 0 {
		t.Fatalf("unlisted server: revenue=%v multiplier=%v, want 7 and 0", s.DB.Revenue("ghost"), recs[0].Multiplier)
	}
}

// startTCP serves the FS on a loopback listener.
func startTCP(t *testing.T, s *Server) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(s.Close)
	return l.Addr().String()
}

func dial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func TestNetworkAuthFlow(t *testing.T) {
	s := New(accounting.Dollars)
	_ = s.Auth.AddUser("alice", "pw", "")
	addr := startTCP(t, s)
	conn := dial(t, addr)

	var ok protocol.AuthOK
	if err := protocol.Call(conn, protocol.TypeAuthReq, protocol.AuthReq{User: "alice", Password: "pw"}, protocol.TypeAuthOK, &ok); err != nil {
		t.Fatal(err)
	}
	if ok.Token == "" {
		t.Fatal("no token")
	}
	// Wrong password on the same connection.
	var bad protocol.AuthOK
	err := protocol.Call(conn, protocol.TypeAuthReq, protocol.AuthReq{User: "alice", Password: "nope"}, protocol.TypeAuthOK, &bad)
	if err == nil || !strings.Contains(err.Error(), "authentication") {
		t.Fatalf("err=%v", err)
	}
	// Verify relay (the FD's path).
	var v protocol.VerifyOK
	if err := protocol.Call(conn, protocol.TypeVerifyReq, protocol.VerifyReq{User: "alice", Token: ok.Token}, protocol.TypeVerifyOK, &v); err != nil {
		t.Fatal(err)
	}
	// List servers requires a valid token.
	var ls protocol.ListServersOK
	err = protocol.Call(conn, protocol.TypeListServersReq, protocol.ListServersReq{Token: "bogus"}, protocol.TypeListServersOK, &ls)
	if err == nil {
		t.Fatal("bogus token accepted")
	}
	if err := protocol.Call(conn, protocol.TypeListServersReq, protocol.ListServersReq{Token: ok.Token}, protocol.TypeListServersOK, &ls); err != nil {
		t.Fatal(err)
	}
}

func TestNetworkRegisterAndList(t *testing.T) {
	s := New(accounting.Dollars)
	_ = s.Auth.AddUser("alice", "pw", "")
	addr := startTCP(t, s)
	conn := dial(t, addr)

	var reg protocol.RegisterOK
	if err := protocol.Call(conn, protocol.TypeRegisterReq, protocol.RegisterReq{Info: info("turing", 128, 1024, "namd")}, protocol.TypeRegisterOK, &reg); err != nil {
		t.Fatal(err)
	}
	var ok protocol.AuthOK
	_ = protocol.Call(conn, protocol.TypeAuthReq, protocol.AuthReq{User: "alice", Password: "pw"}, protocol.TypeAuthOK, &ok)
	var ls protocol.ListServersOK
	if err := protocol.Call(conn, protocol.TypeListServersReq, protocol.ListServersReq{Token: ok.Token}, protocol.TypeListServersOK, &ls); err != nil {
		t.Fatal(err)
	}
	if len(ls.Servers) != 1 || ls.Servers[0].Spec.Name != "turing" {
		t.Fatalf("servers=%v", ls.Servers)
	}
	var apps protocol.ListAppsOK
	if err := protocol.Call(conn, protocol.TypeListAppsReq, protocol.ListAppsReq{Token: ok.Token}, protocol.TypeListAppsOK, &apps); err != nil {
		t.Fatal(err)
	}
	if len(apps.Apps) != 1 || apps.Apps[0] != "namd" {
		t.Fatalf("apps=%v", apps.Apps)
	}
}

func TestNetworkUnsupportedFrame(t *testing.T) {
	s := New(accounting.Dollars)
	addr := startTCP(t, s)
	conn := dial(t, addr)
	_ = protocol.WriteFrame(conn, "nonsense", nil)
	f, err := protocol.ReadFrame(conn)
	if err != nil || f.Type != protocol.TypeError {
		t.Fatalf("f=%+v err=%v", f, err)
	}
}

// pollable fakes a daemon answering poll requests.
func pollable(t *testing.T, fail bool) string {
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
			go func() {
				defer conn.Close()
				rc := protocol.NewReplyConn(conn)
				for {
					f, err := protocol.ReadFrame(conn)
					if err != nil || f.Type != protocol.TypePollReq {
						return
					}
					rc.SetID(f.ID)
					if fail {
						_ = protocol.WriteErrorFrom(rc, errors.New("broken daemon"))
						continue
					}
					_ = protocol.WriteFrame(rc, protocol.TypePollOK, protocol.PollOK{UsedPE: 7, Running: 2})
				}
			}()
		}
	}()
	return l.Addr().String()
}

func TestPollOnceUpdatesLiveness(t *testing.T) {
	s := New(accounting.Dollars)
	defer s.Close()
	good := info("good", 8, 512)
	good.Addr = pollable(t, false)
	bad := info("bad", 8, 512)
	bad.Addr = pollable(t, true)
	gone := info("gone", 8, 512)
	gone.Addr = "127.0.0.1:1" // nothing listens here
	for _, i := range []protocol.ServerInfo{good, bad, gone} {
		if err := s.RegisterDaemon(i); err != nil {
			t.Fatal(err)
		}
	}
	alive := s.PollOnce()
	if alive != 1 {
		t.Fatalf("alive=%d, want 1", alive)
	}
	live := s.Servers(nil)
	if len(live) != 1 || live[0].Spec.Name != "good" {
		t.Fatalf("live=%v", live)
	}
}

func TestWeatherReport(t *testing.T) {
	s := New(accounting.Dollars)
	defer s.Close()
	a := info("a", 100, 512)
	b := info("b", 100, 512)
	_ = s.RegisterDaemon(a)
	_ = s.RegisterDaemon(b)
	s.MarkSeen("a", protocol.PollOK{UsedPE: 50})
	s.MarkSeen("b", protocol.PollOK{UsedPE: 100})
	// 10 CPU-seconds on a list at 10 × 0.01 = $0.10; $0.20 is multiplier 2.
	// (The settlement used to read Price: 20 — multiplier 200 — and the
	// expectation below held only because the cost rate was left out.)
	_ = s.Settle(protocol.SettleReq{JobID: "j", User: "u", Server: "a", Price: 0.20, CPUSeconds: 10})
	r := s.Weather()
	if r.Servers != 2 || r.TotalPE != 200 {
		t.Fatalf("report=%+v", r)
	}
	if r.GridUtilization != 0.75 {
		t.Fatalf("grid util=%v, want 0.75", r.GridUtilization)
	}
	if r.Contracts != 1 || math.Abs(r.MeanMultiplier-2.0) > 1e-9 {
		t.Fatalf("price stats=%+v", r)
	}
	// Dead servers drop out of the report.
	s.MarkDead("b")
	r = s.Weather()
	if r.Servers != 1 || r.TotalPE != 100 {
		t.Fatalf("after death: %+v", r)
	}
}

func TestWeatherOverTheWire(t *testing.T) {
	s := New(accounting.Dollars)
	_ = s.RegisterDaemon(info("a", 64, 512))
	s.MarkSeen("a", protocol.PollOK{UsedPE: 32})
	addr := startTCP(t, s)
	conn := dial(t, addr)
	var reply protocol.WeatherOK
	if err := protocol.Call(conn, protocol.TypeWeatherReq, protocol.WeatherReq{}, protocol.TypeWeatherOK, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.GridUtilization != 0.5 || reply.TotalPE != 64 {
		t.Fatalf("reply=%+v", reply)
	}
}

func dbContract(maxPE int, mult float64) db.ContractRecord {
	return db.ContractRecord{MaxPE: maxPE, Multiplier: mult}
}

func TestHistoryEndpoint(t *testing.T) {
	s := New(accounting.Dollars)
	// Settle contracts across buckets; MaxPE is recorded via Settle's
	// contract rows only when provided — use DB directly for precision.
	s.DB.Update(func(tx *db.Tx) error {
		tx.AppendContract(dbContract(4, 1.2))
		tx.AppendContract(dbContract(32, 2.0))
		tx.AppendContract(dbContract(6, 0.8))
		return nil
	})
	addr := startTCP(t, s)
	conn := dial(t, addr)
	var reply protocol.HistoryOK
	if err := protocol.Call(conn, protocol.TypeHistoryReq, protocol.HistoryReq{MaxPE: 8, Limit: 10}, protocol.TypeHistoryOK, &reply); err != nil {
		t.Fatal(err)
	}
	// Only the "small" bucket (MaxPE ≤ 8) contracts match, newest first.
	if len(reply.Records) != 2 {
		t.Fatalf("records=%v", reply.Records)
	}
	if reply.Records[0].Multiplier != 0.8 || reply.Records[1].Multiplier != 1.2 {
		t.Fatalf("order/content: %v", reply.Records)
	}
}

// TestWeatherCacheTTLAndInvalidation: within the TTL the report is
// served from cache (no fleet rescan), and any registry or settlement
// event invalidates it immediately, so the TTL only ever bounds drift
// from pure time passage.
func TestWeatherCacheTTLAndInvalidation(t *testing.T) {
	s := New(accounting.Dollars)
	defer s.Close()
	s.WeatherTTL = time.Hour // make a stale serve unmistakable
	_ = s.RegisterDaemon(info("a", 100, 512))
	s.MarkSeen("a", protocol.PollOK{UsedPE: 50})

	if r := s.Weather(); r.Servers != 1 {
		t.Fatalf("prime: %+v", r)
	}
	// Poison the cached copy: if the next call rescans, the poison is
	// overwritten; if it serves from cache (expected), it shows through.
	s.weatherMu.Lock()
	s.weatherRep.Servers = 999
	s.weatherMu.Unlock()
	if r := s.Weather(); r.Servers != 999 {
		t.Fatalf("within TTL the cache must serve: %+v", r)
	}

	// A registry event invalidates despite the 1h TTL.
	s.MarkSeen("a", protocol.PollOK{UsedPE: 100})
	if r := s.Weather(); r.Servers != 1 || r.GridUtilization != 1.0 {
		t.Fatalf("after MarkSeen: %+v", r)
	}

	// A settlement invalidates too: the new contract shows up at once.
	s.weatherMu.Lock()
	s.weatherRep.Servers = 999
	s.weatherMu.Unlock()
	if err := s.Settle(protocol.SettleReq{JobID: "jx", User: "u", Server: "a", Price: 20, CPUSeconds: 10}); err != nil {
		t.Fatal(err)
	}
	if r := s.Weather(); r.Servers != 1 || r.Contracts != 1 {
		t.Fatalf("after settle: %+v", r)
	}
}
