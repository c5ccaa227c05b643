package daemon

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"faucets/internal/bidding"
	"faucets/internal/protocol"
	"faucets/internal/qos"
	"faucets/internal/scheduler"
	"faucets/internal/server"
	"faucets/internal/stage"
)

// advance moves a daemon's virtual clock v seconds ahead. Only for a
// daemon that was never started: nothing else may read its epoch.
func advance(d *Daemon, v float64) {
	d.epoch = d.epoch.Add(-time.Duration(v / d.cfg.TimeScale * float64(time.Second)))
}

// TestReservationsExpire: a commit holds the daemon to its price for
// server.BidValidity on the daemon's clock and no longer. A commit makes
// no staging area; a submit inside the window pays the committed price
// and keeps the files uploaded; after it, a submit is refused and leaves
// no job, an upload finds no job, the area the hold's upload made is
// gone, and another user may commit the ID. The hold rule itself, and
// the sweep's bound, are tested on server.Core.
func TestReservationsExpire(t *testing.T) {
	info := protocol.ServerInfo{Spec: spec("turing", 64), Apps: []string{"synth"}}
	d, err := New(Config{Info: info, Scheduler: scheduler.NewEquipartition(info.Spec, scheduler.Config{}),
		TimeScale: 1e-6}) // the clock stands still but for advance
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	conn := protocol.NewReplyConn(discard{})
	var id uint64
	commit := func(user, job string, price float64) error {
		id++
		return d.dispatch(conn, frameOf(t, id, protocol.TypeCommitReq, protocol.CommitReq{
			User: user, JobID: job, Bid: bidding.Bid{Server: "turing", Price: price}}))
	}
	payload := []byte("input deck")
	upload := func(job string) error {
		id++
		return d.dispatch(conn, frameOf(t, id, protocol.TypeUploadReq, protocol.UploadReq{
			User: "alice", JobID: job, Name: "in.dat", Data: payload, Last: true, SHA256: stage.Digest(payload)}))
	}
	submit := func(job string, c *qos.Contract) error {
		return d.submit(protocol.SubmitReq{User: "alice", JobID: job, Contract: c})
	}
	hasFile := func(job string) error {
		_, _, err := d.Stage.ReadAt(job, "in.dat", 0, 0)
		return err
	}

	if err := commit("alice", "idle", 1); err != nil {
		t.Fatal(err)
	}
	if err := hasFile("idle"); !errors.Is(err, stage.ErrNoJob) {
		t.Fatalf("a commit made a staging area: %v", err)
	}

	fresh := func() *qos.Contract { return contract(1e7) }
	// Inside the window: the committed price, and the files uploaded.
	if err := commit("alice", "held", 123.25); err != nil {
		t.Fatal(err)
	}
	advance(d, server.BidValidity/2)
	if err := upload("held"); err != nil {
		t.Fatalf("upload inside the window: %v", err)
	}
	if err := submit("held", fresh()); err != nil {
		t.Fatal(err)
	}
	if p := priceOf(d, "held"); p != 123.25 {
		t.Fatalf("submit inside the window priced at %v, want the committed 123.25", p)
	}
	if err := hasFile("held"); err != nil {
		t.Fatalf("the held job's upload is gone: %v", err)
	}

	// After it: no upload, no submit, and nothing left of the job.
	if err := commit("alice", "late", 123.25); err != nil {
		t.Fatal(err)
	}
	if err := upload("late"); err != nil {
		t.Fatalf("upload inside the window: %v", err)
	}
	advance(d, server.BidValidity+1)
	if err := upload("late"); !errors.Is(err, stage.ErrNoJob) {
		t.Fatalf("upload after the window: %v, want stage.ErrNoJob", err)
	}
	if err := submit("late", fresh()); !errors.Is(err, server.ErrNoCommitment) {
		t.Fatalf("submit after the window: %v, want server.ErrNoCommitment", err)
	}
	if _, ok := jobOf(d, "late"); ok {
		t.Fatal("a submit after the window left a job")
	}
	if err := hasFile("late"); !errors.Is(err, stage.ErrNoJob) {
		t.Fatalf("the lapsed hold's staging area outlived it: %v", err)
	}

	// A lapsed hold binds no one: another user commits the ID.
	if err := commit("alice", "taken", 1); err != nil {
		t.Fatal(err)
	}
	if err := commit("bob", "taken", 1); err == nil {
		t.Fatal("a foreign commit on a held job accepted")
	}
	advance(d, server.BidValidity+1)
	if err := commit("bob", "taken", 2); err != nil {
		t.Fatalf("commit on a lapsed hold: %v", err)
	}
}

// TestReservationChurnUnderLoad interleaves commits, uploads, submits and
// the sweeps commits run from several goroutines on one running daemon
// whose holds lapse within milliseconds; CI runs it under -race. A job
// is admitted at its committed price or, its hold lapsed, refused, and
// once every hold has lapsed none is left, nor a staging area, for a job
// that was not admitted.
func TestReservationChurnUnderLoad(t *testing.T) {
	d, _ := startDaemon(t, Config{TimeScale: 1e5}) // a hold lasts 3 ms
	const workers, rounds, committed = 4, 200, 777.0
	// Frames are built here: a worker's goroutine may not end the test.
	type trip struct {
		job            string
		commit, upload protocol.Frame
	}
	trips := make([][]trip, workers)
	for w := range trips {
		for i := 0; i < rounds; i++ {
			job := fmt.Sprintf("w%d-%03d", w, i)
			trips[w] = append(trips[w], trip{job,
				frameOf(t, uint64(2*i+1), protocol.TypeCommitReq, protocol.CommitReq{
					User: "alice", JobID: job, Bid: bidding.Bid{Server: "turing", Price: committed}}),
				frameOf(t, uint64(2*i+2), protocol.TypeUploadReq, protocol.UploadReq{
					User: "alice", JobID: job, Name: "in.dat", Data: []byte("chunk"), Last: true}),
			})
		}
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var unsubmitted []string
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			conn := protocol.NewReplyConn(discard{})
			rng := rand.New(rand.NewSource(int64(w)))
			for _, tr := range trips[w] {
				if err := d.dispatch(conn, tr.commit); err != nil {
					t.Error(err)
					return
				}
				if rng.Intn(2) == 0 {
					if err := d.dispatch(conn, tr.upload); err != nil && !errors.Is(err, stage.ErrNoJob) {
						t.Error(err)
						return
					}
				}
				if rng.Intn(4) == 0 { // let some holds lapse
					time.Sleep(time.Duration(rng.Intn(5)) * time.Millisecond)
				}
				if rng.Intn(2) == 0 {
					mu.Lock()
					unsubmitted = append(unsubmitted, tr.job)
					mu.Unlock()
					continue
				}
				err := d.submit(protocol.SubmitReq{User: "alice", JobID: tr.job, Contract: contract(100)})
				if errors.Is(err, server.ErrNoCommitment) { // the hold lapsed
					mu.Lock()
					unsubmitted = append(unsubmitted, tr.job)
					mu.Unlock()
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	d.mu.Lock()
	defer d.mu.Unlock()
	for job, a := range d.jobs {
		if a.price != committed {
			t.Errorf("job %s admitted at %v, want the committed %v", job, a.price, committed)
		}
	}
	lapsed := d.Now() + server.BidValidity + 1 // past every hold's lapse
	for _, job := range unsubmitted {
		if _, err := d.core.HeldFor(lapsed, job, "alice"); !errors.Is(err, server.ErrNoCommitment) {
			t.Fatalf("job %s was never submitted, yet a hold survives its lapse: %v", job, err)
		}
		if _, _, err := d.Stage.ReadAt(job, "in.dat", 0, 0); !errors.Is(err, stage.ErrNoJob) {
			t.Fatalf("job %s was never submitted, yet its staging area is left: %v", job, err)
		}
	}
}

// priceOf is the price the daemon admitted job id at, read under its lock.
func priceOf(d *Daemon, id string) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.jobs[id].price
}

// TestSubmitSpendsOnlyYourOwnCommitment: a commitment binds the daemon to
// the user who made it (§5.3). Another user's submit of the held job ID
// is refused and leaves no job; the committer's own submit then pays the
// committed price, and the job is theirs.
func TestSubmitSpendsOnlyYourOwnCommitment(t *testing.T) {
	info := protocol.ServerInfo{Spec: spec("turing", 64), Apps: []string{"synth"}}
	d, err := New(Config{Info: info, Scheduler: scheduler.NewEquipartition(info.Spec, scheduler.Config{}),
		TimeScale: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	commitJob(t, d, "alice", "a", 50000)
	err = d.submit(protocol.SubmitReq{User: "mallory", JobID: "a", Contract: contract(1e7)})
	if !errors.Is(err, server.ErrNotOwner) {
		t.Fatalf("mallory's submit of alice's held job: %v, want server.ErrNotOwner", err)
	}
	if _, ok := jobOf(d, "a"); ok {
		t.Fatal("mallory's refused submit left a job")
	}
	if err := d.submit(protocol.SubmitReq{User: "alice", JobID: "a", Contract: contract(1e7)}); err != nil {
		t.Fatalf("alice's submit after mallory's: %v", err)
	}
	if j, _ := jobOf(d, "a"); j.Owner != "alice" || priceOf(d, "a") != 50000 {
		t.Fatalf("job admitted for %q at %v, want alice at the committed 50000", j.Owner, priceOf(d, "a"))
	}
	if _, err := d.kill(protocol.KillReq{User: "mallory", JobID: "a"}); !errors.Is(err, server.ErrNotOwner) {
		t.Fatalf("mallory's kill of alice's job: %v, want server.ErrNotOwner", err)
	}
}

// TestUploadNeedsTheJobsUser: an upload is checked as a submit is. On a
// daemon with a Central Server, one carrying no valid token is refused,
// and so is one from a user who does not own the job, held or running;
// the owner's own is staged.
func TestUploadNeedsTheJobsUser(t *testing.T) {
	fs, fsAddr := startCentralForWeather(t)
	for _, u := range []string{"alice", "mallory"} {
		if err := fs.Auth.AddUser(u, "pw", ""); err != nil {
			t.Fatal(err)
		}
	}
	d, addr := startDaemon(t, Config{CentralAddr: fsAddr, TimeScale: 1e-6})
	conn := dial(t, addr)
	alice, err := fs.Auth.Login("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	mallory, err := fs.Auth.Login("mallory", "pw")
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("input deck")
	upload := func(user, token string) error {
		var up protocol.UploadOK
		return protocol.Call(conn, protocol.TypeUploadReq, protocol.UploadReq{User: user, Token: token,
			JobID: "a", Name: "in.dat", Data: payload, Last: true, SHA256: stage.Digest(payload)}, protocol.TypeUploadOK, &up)
	}
	commitJob(t, d, "alice", "a", 1)
	for _, bad := range []struct{ what, user, token string }{
		{"no token", "alice", ""},
		{"a bogus token", "alice", "bogus"},
		{"another user", "mallory", mallory},
		{"another user's token", "alice", mallory},
	} {
		if err := upload(bad.user, bad.token); err == nil {
			t.Fatalf("upload with %s to a held job accepted", bad.what)
		}
	}
	if _, _, err := d.Stage.ReadAt("a", "in.dat", 0, 0); !errors.Is(err, stage.ErrNoJob) {
		t.Fatalf("a refused upload staged something: %v", err)
	}
	if err := upload("alice", alice); err != nil {
		t.Fatalf("the owner's upload: %v", err)
	}
	if err := d.submit(protocol.SubmitReq{User: "alice", JobID: "a", Contract: contract(1e7)}); err != nil {
		t.Fatal(err)
	}
	if err := upload("mallory", mallory); err == nil || !strings.Contains(err.Error(), server.ErrNotOwner.Error()) {
		t.Fatalf("mallory's upload to alice's running job: %v", err)
	}
}
