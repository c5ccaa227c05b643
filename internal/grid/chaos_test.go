package grid

import (
	"fmt"
	"testing"
	"time"

	"faucets/internal/chaos"
	"faucets/internal/client"
	"faucets/internal/market"
)

// chaosInjector returns the fixed fault schedule used by the crash
// tests: occasional severed connections, frequent small delays, rare
// torn frames. The fixed seed makes failures reproducible.
func chaosInjector() *chaos.Injector {
	return chaos.New(chaos.Config{
		Seed:        7,
		DropProb:    0.02,
		DelayProb:   0.10,
		MaxDelay:    2 * time.Millisecond,
		PartialProb: 0.01,
	})
}

// retryUntil keeps calling fn until it succeeds or the deadline passes.
func retryUntil(t *testing.T, what string, timeout time.Duration, fn func() error) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var err error
	for {
		if err = fn(); err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %v", what, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// settlementTally counts history records per job ID and sums revenue.
func settlementTally(g *Grid, jobIDs []string) (perJob map[string]int, revenue float64) {
	perJob = map[string]int{}
	for _, r := range g.Central.DB.RecentContracts(nil, 10_000) {
		perJob[r.JobID]++
	}
	for _, cl := range g.clusters {
		revenue += g.Central.DB.Revenue(cl.Spec.Name)
	}
	return perJob, revenue
}

// runChaosWorkload boots a durable two-cluster grid behind the fault
// injector, submits four jobs, optionally crash-restarts both a daemon
// and the Central Server mid-workload (with a partition over the
// restart window), and waits for every job to settle. It returns the
// per-job settlement counts and the total revenue.
//
// The two clusters are deliberately identical in Speed and CostRate:
// the baseline bid price depends only on the contract and those two
// numbers, so total revenue must come out the same whether or not the
// grid crashed — the comparison the caller makes.
func runChaosWorkload(t *testing.T, crash bool) (map[string]int, float64) {
	t.Helper()
	in := chaosInjector()
	clusters := []ClusterSpec{
		{Spec: spec("turing", 64, 0.01), Apps: []string{"synth"}},
		{Spec: spec("lemieux", 64, 0.01), Apps: []string{"synth"}},
	}
	g, err := Start(clusters, Options{
		Users:       map[string]string{"alice": "pw"},
		StateDir:    t.TempDir(),
		Chaos:       in,
		RPCTimeout:  500 * time.Millisecond,
		SettleRetry: 20 * time.Millisecond,
		ReRegister:  50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	var cl *client.Client
	retryUntil(t, "login", 10*time.Second, func() error {
		var err error
		cl, err = g.Login("alice", "pw")
		return err
	})

	// Submit four jobs. Every wire step can be severed by the injector;
	// commit and submit are idempotent per (job, user), so retrying a
	// lost ack is safe. A Place whose award never completed is retried
	// wholesale under a fresh job ID — the orphaned reservation never
	// runs and never settles.
	var jobIDs []string
	firstServer := ""
	for i := 0; i < 4; i++ {
		var p *client.Placement
		retryUntil(t, fmt.Sprintf("place job %d", i), 20*time.Second, func() error {
			var err error
			p, err = cl.Place(contract(2000), market.LeastCost{})
			return err
		})
		retryUntil(t, fmt.Sprintf("start job %d", i), 20*time.Second, func() error {
			return cl.Start(p)
		})
		jobIDs = append(jobIDs, p.JobID)
		if firstServer == "" {
			firstServer = p.Server.Spec.Name
		}
	}

	if crash {
		// Let the jobs get partway through (~125 virtual seconds each at
		// timescale 1000), then take down the executing daemon and the
		// Central Server inside a network partition — the worst window:
		// finished jobs may hold unacknowledged settlements.
		time.Sleep(60 * time.Millisecond)
		in.Partition(true)
		if err := g.RestartDaemon(firstServer); err != nil {
			t.Fatalf("restart daemon: %v", err)
		}
		if err := g.RestartCentral(); err != nil {
			t.Fatalf("restart central: %v", err)
		}
		in.Partition(false)
	}

	// Settlement completion is judged at the Central Server's database —
	// client Status calls are useless across a daemon restart window.
	deadline := time.Now().Add(60 * time.Second)
	for {
		perJob, _ := settlementTally(g, jobIDs)
		done := 0
		for _, id := range jobIDs {
			if perJob[id] >= 1 {
				done++
			}
		}
		if done == len(jobIDs) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d jobs settled: %v", done, len(jobIDs), perJob)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Let any straggling redeliveries land before counting duplicates.
	time.Sleep(100 * time.Millisecond)
	perJob, revenue := settlementTally(g, jobIDs)
	return perJob, revenue
}

// TestChaosCrashRecoveryExactlyOnce is the acceptance test for the
// durability layer: a workload that loses both a Faucets Daemon and the
// Central Server mid-flight — under seeded network chaos, with a
// partition across the restart window — must finish with zero lost
// jobs, zero lost or double-applied settlements, and the same total
// revenue as the run where nothing crashed.
func TestChaosCrashRecoveryExactlyOnce(t *testing.T) {
	baselineJobs, baselineRevenue := runChaosWorkload(t, false)
	crashJobs, crashRevenue := runChaosWorkload(t, true)

	for id, n := range baselineJobs {
		if n != 1 {
			t.Errorf("no-crash run: job %s settled %d times", id, n)
		}
	}
	for id, n := range crashJobs {
		if n != 1 {
			t.Errorf("crash run: job %s settled %d times", id, n)
		}
	}
	if len(crashJobs) != len(baselineJobs) {
		t.Errorf("settled job count: crash=%d baseline=%d", len(crashJobs), len(baselineJobs))
	}
	if crashRevenue != baselineRevenue {
		t.Errorf("revenue diverged: crash=%v baseline=%v", crashRevenue, baselineRevenue)
	}
	if baselineRevenue == 0 {
		t.Error("workload produced no revenue at all")
	}
}

// TestChaosDaemonRestartAlone: the narrower invariant — losing only the
// executing daemon mid-job still yields exactly-once settlement for
// every job, because the journal restarts the lost jobs and the Central
// Server deduplicates redelivered settlements by job ID.
func TestChaosDaemonRestartAlone(t *testing.T) {
	in := chaosInjector()
	clusters := []ClusterSpec{
		{Spec: spec("turing", 64, 0.01), Apps: []string{"synth"}},
	}
	g, err := Start(clusters, Options{
		Users:       map[string]string{"alice": "pw"},
		StateDir:    t.TempDir(),
		Chaos:       in,
		RPCTimeout:  500 * time.Millisecond,
		SettleRetry: 20 * time.Millisecond,
		ReRegister:  50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	var cl *client.Client
	retryUntil(t, "login", 10*time.Second, func() error {
		var err error
		cl, err = g.Login("alice", "pw")
		return err
	})
	var p *client.Placement
	retryUntil(t, "place", 20*time.Second, func() error {
		var err error
		p, err = cl.Place(contract(2000), market.LeastCost{})
		return err
	})
	retryUntil(t, "start", 20*time.Second, func() error { return cl.Start(p) })

	time.Sleep(30 * time.Millisecond)
	if err := g.RestartDaemon("turing"); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		perJob, _ := settlementTally(g, []string{p.JobID})
		if perJob[p.JobID] >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never settled after daemon restart", p.JobID)
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond)
	perJob, _ := settlementTally(g, []string{p.JobID})
	if perJob[p.JobID] != 1 {
		t.Fatalf("job settled %d times, want exactly once", perJob[p.JobID])
	}
}
