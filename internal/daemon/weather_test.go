package daemon

import (
	"net"
	"testing"

	"faucets/internal/accounting"
	"faucets/internal/bidding"
	"faucets/internal/central"
	"faucets/internal/db"
	"faucets/internal/protocol"
	"faucets/internal/qos"
	"faucets/internal/scheduler"
	"faucets/internal/telemetry"
)

func startCentralForWeather(t *testing.T) (*central.Server, string) {
	t.Helper()
	fs := central.New(accounting.Dollars)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go fs.Serve(l)
	t.Cleanup(fs.Close)
	return fs, l.Addr().String()
}

// sourcedDaemon builds — without starting — a daemon homed to the Central
// Server at addr whose bidder came without a §5.2.1 source, which is how
// New comes to install one over the daemon's own pool.
func sourcedDaemon(t *testing.T, addr string, bidder bidding.Generator) *Daemon {
	t.Helper()
	sp := spec("w", 100)
	d, err := New(Config{
		Info:        protocol.ServerInfo{Spec: sp},
		Scheduler:   scheduler.NewEquipartition(sp, scheduler.Config{}),
		Bidder:      bidder,
		CentralAddr: addr,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

func TestCentralWeatherFetchAndCache(t *testing.T) {
	fs, addr := startCentralForWeather(t)
	info := protocol.ServerInfo{Spec: spec("w", 100), Addr: "127.0.0.1:1"}
	if err := fs.RegisterDaemon(info); err != nil {
		t.Fatal(err)
	}
	fs.MarkSeen("w", protocol.PollOK{UsedPE: 25})

	w := bidding.NewWeather(nil)
	sourcedDaemon(t, addr, w)
	rep, ok := w.Source.GridWeather(0)
	if !ok {
		t.Fatal("weather fetch failed")
	}
	if rep.GridUtilization != 0.25 || rep.TotalPE != 100 {
		t.Fatalf("report=%+v", rep)
	}
	// The cached report survives a fleet change within the TTL.
	fs.MarkSeen("w", protocol.PollOK{UsedPE: 100})
	rep2, _ := w.Source.GridWeather(1)
	if rep2.GridUtilization != 0.25 {
		t.Fatalf("cache miss: %v", rep2.GridUtilization)
	}
}

func TestCentralWeatherUnreachable(t *testing.T) {
	w := bidding.NewWeather(nil)
	sourcedDaemon(t, "127.0.0.1:1", w)
	if _, ok := w.Source.GridWeather(0); ok {
		t.Fatal("unreachable central produced a report")
	}
}

// TestSourcelessBidderNeedsCentral: a weather or history bidder without a
// source is an error on a standalone daemon, not a bidder that silently
// prices blind; a bidder that brought its own source is left alone.
func TestSourcelessBidderNeedsCentral(t *testing.T) {
	sp := spec("w", 100)
	for _, b := range []bidding.Generator{bidding.NewWeather(nil), bidding.NewHistory(nil)} {
		_, err := New(Config{Info: protocol.ServerInfo{Spec: sp}, Scheduler: scheduler.NewEquipartition(sp, scheduler.Config{}), Bidder: b})
		if err == nil {
			t.Fatalf("standalone daemon accepted a sourceless %s bidder", b.Name())
		}
	}
	h := bidding.NewHistory(noHistory{})
	sourcedDaemon(t, "127.0.0.1:1", h)
	if h.View != (noHistory{}) {
		t.Fatal("New replaced a view the caller supplied")
	}
}

type noHistory struct{}

func (noHistory) SimilarContracts(float64, *qos.Contract, int) []bidding.HistoryRecord { return nil }

// TestCentralWeatherAndHistoryOverPool: both sources ride the daemon's own
// pool — one shared persistent connection, no second transport — and a
// replacement daemon re-homes a bidder its predecessor had sourced.
func TestCentralWeatherAndHistoryOverPool(t *testing.T) {
	fs, addr := startCentralForWeather(t)
	info := protocol.ServerInfo{Spec: spec("w", 100), Addr: "127.0.0.1:1"}
	if err := fs.RegisterDaemon(info); err != nil {
		t.Fatal(err)
	}
	fs.MarkSeen("w", protocol.PollOK{UsedPE: 50})
	fs.DB.Update(func(tx *db.Tx) error { tx.AppendContract(db.ContractRecord{MaxPE: 4, Multiplier: 2.0}); return nil })

	w := bidding.NewWeather(nil)
	d := sourcedDaemon(t, addr, w)
	rep, ok := w.Source.GridWeather(0)
	if !ok || rep.GridUtilization != 0.5 {
		t.Fatalf("pooled weather fetch: ok=%v rep=%+v", ok, rep)
	}
	view := &centralHistory{d: d}
	recs := view.SimilarContracts(0, &qos.Contract{App: "x", MinPE: 1, MaxPE: 8, Work: 1}, 10)
	if len(recs) != 1 || recs[0].Multiplier != 2.0 {
		t.Fatalf("pooled history fetch: recs=%v", recs)
	}
	if open := d.cfg.Metrics.Gauge("faucets_rpc_pool_open_conns", "", telemetry.L("component", "daemon")).Value(); open != 1 {
		t.Fatalf("pooled fetches opened %v conns, want 1 shared", open)
	}

	d.Close()
	if _, ok := (&centralWeather{d: d}).GridWeather(0); ok {
		t.Fatal("a closed daemon's pool still fetched")
	}
	next := sourcedDaemon(t, addr, w)
	if src := w.Source.(*centralWeather); src.d != next {
		t.Fatal("the replacement daemon left the bidder on its predecessor's closed pool")
	}
}

func TestCentralHistoryFetch(t *testing.T) {
	fs, addr := startCentralForWeather(t)
	fs.DB.Update(func(tx *db.Tx) error { tx.AppendContract(db.ContractRecord{MaxPE: 4, Multiplier: 1.5}); return nil })
	fs.DB.Update(func(tx *db.Tx) error { tx.AppendContract(db.ContractRecord{MaxPE: 128, Multiplier: 9.0}); return nil }) // other bucket

	h := bidding.NewHistory(nil)
	sourcedDaemon(t, addr, h)
	c := &qos.Contract{App: "x", MinPE: 1, MaxPE: 8, Work: 1}
	recs := h.View.SimilarContracts(0, c, 10)
	if len(recs) != 1 || recs[0].Multiplier != 1.5 {
		t.Fatalf("recs=%v", recs)
	}
	// Unreachable central degrades to no history (bidder falls back).
	dead := bidding.NewHistory(nil)
	sourcedDaemon(t, "127.0.0.1:1", dead)
	if recs := dead.View.SimilarContracts(0, c, 10); recs != nil {
		t.Fatalf("dead central returned records: %v", recs)
	}
}
