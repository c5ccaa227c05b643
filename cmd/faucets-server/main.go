// Command faucets-server runs the Faucets Central Server (paper §2): the
// directory of Compute Servers, user authentication, daemon polling,
// billing/bartering settlement, and the contract history.
//
// Usage:
//
//	faucets-server -listen :9100 -mode dollars -users users.txt -poll 10s
//
// The users file holds one "user:password[:homecluster]" per line.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"faucets/internal/accounting"
	"faucets/internal/central"
	"faucets/internal/db"
	"faucets/internal/qos"
	"faucets/internal/shard"
	"faucets/internal/telemetry"
)

func main() {
	listen := flag.String("listen", ":9100", "address to listen on")
	mode := flag.String("mode", "dollars", "economic mode: dollars, su, barter")
	usersFile := flag.String("users", "", "file of user:password[:homecluster] lines")
	poll := flag.Duration("poll", 10*time.Second, "daemon polling interval (0 disables)")
	deadAfter := flag.Duration("dead-after", 30*time.Second, "unseen daemons drop from the directory after this long")
	stateDir := flag.String("state-dir", "", "durable state directory (snapshot + write-ahead log): every mutation is logged, and a restarted server recovers accounts, history, and settled-job marks")
	snapEvery := flag.Duration("snapshot-interval", time.Minute, "WAL compaction interval (with -state-dir)")
	walWindow := flag.Duration("wal-group-window", 0, "WAL group-commit accumulation window: how long a batch leader waits for concurrent mutations to pile on before the shared fsync (0 = flush immediately; with -state-dir)")
	peers := flag.String("peers", "", "comma-separated peer Central Server addresses this server asks (distributed directory and token vouching, §5.1); not with -ring")
	ring := flag.String("ring", "", "comma-separated addresses of EVERY shard in a consistent-hash Central Server mesh, identical on all members; users and server names partition across them, and every other member is a peer")
	shardID := flag.Int("shard-id", -1, "this server's index into -ring (its public address as peers dial it); required with -ring")
	gossipInterval := flag.Duration("gossip-interval", 0, "how often each peer's directory/weather digest is pulled (0 = default; with -ring or -peers)")
	rpcTimeout := flag.Duration("rpc-timeout", 5*time.Second, "deadline for each federation RPC round trip")
	pollTimeout := flag.Duration("poll-timeout", 3*time.Second, "deadline for each daemon liveness probe")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus metrics at this address under /metrics (empty = off)")
	maxInflight := flag.Int("max-inflight", 0, "admission control: auctions + settlements processed concurrently before new auctions are shed with a retryable OVERLOADED error (0 = unlimited)")
	breakerThreshold := flag.Float64("breaker-threshold", 0, "circuit-breaker suspicion score that opens a daemon's breaker and skips its liveness probes (0 = breakers off)")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "how long an open breaker waits before half-open probing (0 = library default)")
	mechanism := flag.String("mechanism", "", "grid default market mechanism advertised to clients at login: first-price, posted-price, or vickrey (empty = first-price)")
	flag.Parse()

	if !qos.ValidMechanism(*mechanism) {
		log.Fatalf("-mechanism: unknown mechanism %q (want first-price, posted-price, or vickrey)", *mechanism)
	}

	var m accounting.Mode
	switch strings.ToLower(*mode) {
	case "dollars":
		m = accounting.Dollars
	case "su", "service-units":
		m = accounting.ServiceUnits
	case "barter":
		m = accounting.Barter
	default:
		log.Fatalf("unknown mode %q", *mode)
	}

	srv := central.New(m)
	if *stateDir != "" {
		store, err := db.Open(*stateDir)
		if err != nil {
			log.Fatalf("db: %v", err)
		}
		store.SetGroupWindow(*walWindow)
		srv = central.NewWithDB(m, store)
		log.Printf("faucets-server: recovered durable state from %s (%d history records)", *stateDir, store.HistoryLen())
	}
	srv.DeadAfter = *deadAfter
	srv.RPCTimeout = *rpcTimeout
	srv.PollTimeout = *pollTimeout
	srv.MaxInflight = *maxInflight
	srv.BreakerThreshold = *breakerThreshold
	srv.BreakerCooldown = *breakerCooldown
	srv.DefaultMechanism = *mechanism
	srv.GossipInterval = *gossipInterval
	if *peers != "" && *ring != "" {
		log.Fatal("-peers and -ring are exclusive: a ring member's peers are the rest of its ring")
	}
	if *peers != "" {
		var list []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				list = append(list, p)
			}
		}
		srv.SetPeers(list)
	}
	if *ring != "" {
		r, err := shard.Parse(*ring)
		if err != nil {
			log.Fatalf("-ring: %v", err)
		}
		if *shardID < 0 || *shardID >= r.Size() {
			log.Fatalf("-shard-id: want 0..%d (index into -ring), got %d", r.Size()-1, *shardID)
		}
		srv.Ring = r
		srv.SelfAddr = r.Addrs()[*shardID]
		log.Printf("faucets-server: shard %d/%d of ring %v", *shardID, r.Size(), r.Addrs())
	} else if *shardID >= 0 {
		log.Fatal("-shard-id requires -ring")
	}
	if *usersFile != "" {
		if err := loadUsers(srv, *usersFile); err != nil {
			log.Fatalf("users: %v", err)
		}
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	if *metricsAddr != "" {
		ml, err := telemetry.Serve(*metricsAddr, srv.Metrics, nil)
		if err != nil {
			log.Fatalf("metrics: %v", err)
		}
		defer ml.Close()
		log.Printf("faucets-server: metrics on http://%s/metrics", ml.Addr())
	}
	if *poll > 0 {
		srv.StartPolling(*poll)
	}
	srv.StartGossip()
	if *stateDir != "" {
		srv.StartSnapshots(*snapEvery)
	}
	// Serve returns as soon as Close severs the listener, so main must
	// wait for the shutdown sequence (final compaction, WAL close) to
	// finish before the process may exit.
	done := make(chan struct{})
	go func() {
		defer close(done)
		shutdownOnSignal(srv)
	}()
	log.Printf("faucets-server: %s mode on %s", m, l.Addr())
	srv.Serve(l)
	<-done
}

// shutdownOnSignal stops the server gracefully on SIGINT/SIGTERM: stop
// accepting, flush durable state (a final WAL compaction runs inside
// Close's snapshot loop), and close the log.
func shutdownOnSignal(srv *central.Server) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	sig := <-ch
	log.Printf("faucets-server: %v: shutting down", sig)
	srv.Close()
	if err := srv.DB.Close(); err != nil {
		log.Printf("db close: %v", err)
	}
}

func loadUsers(srv *central.Server, path string) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	for i, line := range strings.Split(string(blob), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.SplitN(line, ":", 3)
		if len(parts) < 2 {
			return fmt.Errorf("line %d: want user:password[:home]", i+1)
		}
		home := ""
		if len(parts) == 3 {
			home = parts[2]
		}
		if err := srv.Auth.AddUser(parts[0], parts[1], home); err != nil {
			return fmt.Errorf("line %d: %w", i+1, err)
		}
	}
	return nil
}
