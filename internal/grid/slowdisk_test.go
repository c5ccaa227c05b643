package grid

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"faucets/internal/jsonl"
	"faucets/internal/market"
	"faucets/internal/qos"
)

// slowSyncFile is a log file whose every fsync takes 5 ms: a slow disk
// under the Central Server's WAL and every daemon's journal.
type slowSyncFile struct{ jsonl.File }

func (f slowSyncFile) Sync() error {
	time.Sleep(5 * time.Millisecond)
	return f.File.Sync()
}

// TestTripsOnASlowDisk: 200 trips arrive at 400 a second on a durable
// grid whose every fsync takes 5 ms. A reply that waits for the disk
// holds up no other request on its connection, a log's leader flushes
// one batch and hands on, and a daemon delivers its whole outbox at
// once, so: no Start is refused for a commitment that lapsed while its
// submit queued, every trip settles, the outboxes drain, and the Central
// Server's fsyncs each carry at least two settlements.
func TestTripsOnASlowDisk(t *testing.T) {
	open := jsonl.OpenFile
	t.Cleanup(func() { jsonl.OpenFile = open })
	jsonl.OpenFile = func(path string) (jsonl.File, error) {
		f, err := open(path)
		if err != nil {
			return nil, err
		}
		return slowSyncFile{f}, nil
	}
	var clusters []ClusterSpec
	for i := range 6 {
		clusters = append(clusters, ClusterSpec{Spec: spec(fmt.Sprintf("cs-%02d", i), 256, 0.010+0.001*float64(i)), Apps: []string{"synth"}})
	}
	g, err := Start(clusters, Options{Users: map[string]string{"alice": "pw", "bob": "pw"}, StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	alice, err := g.Login("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	bob, err := g.Login("bob", "pw")
	if err != nil {
		t.Fatal(err)
	}

	const trips = 200
	var wg sync.WaitGroup
	var mu sync.Mutex
	var failed []error
	start := time.Now()
	for i := range trips {
		time.Sleep(time.Until(start.Add(time.Duration(i) * 2500 * time.Microsecond)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := alice
			if i%2 == 1 {
				c = bob
			}
			p, err := c.Place(&qos.Contract{App: "synth", MinPE: 1 + i%4, MaxPE: 4 + i%13, Work: 1 + float64(i%20)}, market.LeastCost{})
			if err == nil {
				err = c.Start(p)
			}
			if err != nil {
				mu.Lock()
				failed = append(failed, err)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(failed) > 0 {
		t.Fatalf("%d of %d trips failed to place or start; the first: %v", len(failed), trips, failed[0])
	}
	outboxes := func() (n int) {
		for _, d := range g.Daemons {
			n += d.OutboxLen()
		}
		return n
	}
	for deadline := time.Now().Add(10 * time.Second); g.HistoryLen() < trips || outboxes() > 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d trips settled, %d settlements still queued", g.HistoryLen(), trips, outboxes())
		}
	}
	syncs := g.Central.Metrics.Counter("faucets_db_wal_sync_total", "").Value()
	settled := g.Central.Metrics.Counter("faucets_central_jobs_settled_total", "").Value()
	t.Logf("%d trips in %v: %d Central Server fsyncs for %d settlements", trips, time.Since(start).Round(time.Millisecond), syncs, settled)
	if settled != trips || float64(syncs) > 0.5*float64(settled) {
		t.Fatalf("%d fsyncs for %d settlements: want every trip settled, at ≤ 0.5 fsyncs a settlement", syncs, settled)
	}
}
