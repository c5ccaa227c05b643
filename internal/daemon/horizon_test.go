package daemon

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"faucets/internal/accounting"
	"faucets/internal/bidding"
	"faucets/internal/central"
	"faucets/internal/job"
	"faucets/internal/protocol"
)

// TestRetiredJobsPastTheHorizonAreForgotten: a daemon answers for the
// newest maxRetired jobs whose settlements the Central Server has
// acknowledged, and forgets older ones whole. On the kept side of the
// bound a job's status and outputs read back, and a duplicate submit and
// a re-commit are re-acknowledged; on the forgotten side each answers
// "unknown job", and the ID is free: committed again, it runs as a new
// admission, which the Central Server books and bills as a run of its
// own.
func TestRetiredJobsPastTheHorizonAreForgotten(t *testing.T) {
	fs := central.New(accounting.Dollars)
	for _, u := range []string{"alice", "bob"} {
		if err := fs.Auth.AddUser(u, "pw", ""); err != nil {
			t.Fatal(err)
		}
	}
	fsl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go fs.Serve(fsl)
	t.Cleanup(fs.Close)
	token, err := fs.Auth.Login("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	bobToken, err := fs.Auth.Login("bob", "pw")
	if err != nil {
		t.Fatal(err)
	}
	d, addr := startDaemon(t, Config{CentralAddr: fsl.Addr().String(), SettleRetry: 5 * time.Millisecond})
	conn := dial(t, addr)

	retired := func(id string) bool {
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.jobs[id].retired
	}
	commitAs := func(user, token, id string) error {
		return protocol.Call(conn, protocol.TypeCommitReq, protocol.CommitReq{User: user, Token: token, JobID: id,
			Bid: bidding.Bid{Server: d.Name(), Price: 2}}, protocol.TypeCommitOK, &protocol.CommitOK{})
	}
	commit := func(id string) error { return commitAs("alice", token, id) }
	submit := func(id string) error {
		return protocol.Call(conn, protocol.TypeSubmitReq, protocol.SubmitReq{User: "alice", Token: token, JobID: id,
			Contract: contract(20)}, protocol.TypeSubmitOK, &protocol.SubmitOK{})
	}
	// run takes id through a whole trip, to its settlement's ack.
	run := func(id string) {
		if err := commit(id); err != nil {
			t.Fatalf("commit %s: %v", id, err)
		}
		if err := submit(id); err != nil {
			t.Fatalf("submit %s: %v", id, err)
		}
		for deadline := time.Now().Add(10 * time.Second); !retired(id); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s never retired", id)
			}
		}
	}
	// fill retires n more jobs that ran, as far as the daemon's books go.
	filled := 0
	fill := func(n int) {
		d.mu.Lock()
		defer d.mu.Unlock()
		for range n {
			id := fmt.Sprintf("filler-%d", filled)
			filled++
			d.jobs[id] = admission{j: job.New(job.ID(id), "alice", contract(1), 0), settled: true}
			d.Stage.CreateJob(id)
			d.retireLocked(id, 0)
		}
	}
	status := func(id string) error {
		var st protocol.StatusOK
		return protocol.Call(conn, protocol.TypeStatusReq, protocol.StatusReq{Token: token, JobID: id}, protocol.TypeStatusOK, &st)
	}
	held := func() int {
		d.mu.Lock()
		defer d.mu.Unlock()
		return len(d.jobs)
	}

	run("forgotten")
	run("kept")
	fill(maxRetired - 2)
	if err := status("forgotten"); err != nil || held() != maxRetired {
		t.Fatalf("with %d jobs retired the oldest answers %v, and %d are held: want every one", maxRetired, err, held())
	}
	fill(1)
	if held() != maxRetired {
		t.Fatalf("the daemon holds %d jobs, want the newest %d", held(), maxRetired)
	}

	var st protocol.StatusOK
	if err := protocol.Call(conn, protocol.TypeStatusReq, protocol.StatusReq{Token: token, JobID: "kept"}, protocol.TypeStatusOK, &st); err != nil || st.State != job.Finished.String() {
		t.Fatalf("status of the kept job: %+v, %v", st, err)
	}
	var out protocol.OutputOK
	if err := protocol.Call(conn, protocol.TypeOutputReq, protocol.OutputReq{Token: token, JobID: "kept", Name: "result.out"}, protocol.TypeOutputOK, &out); err != nil ||
		!strings.HasPrefix(string(out.Data), "job=kept user=fauc-tmp-") {
		t.Fatalf("result.out of the kept job: %q, %v", out.Data, err)
	}
	if err := submit("kept"); err != nil {
		t.Fatalf("duplicate submit of the kept job: %v", err)
	}
	if err := commit("kept"); err != nil {
		t.Fatalf("re-commit of the kept job: %v", err)
	}

	if err := status("forgotten"); err == nil || !strings.Contains(err.Error(), "unknown job") {
		t.Fatalf("status of the forgotten job: %v; want unknown job", err)
	}
	err = protocol.Call(conn, protocol.TypeOutputReq, protocol.OutputReq{Token: token, JobID: "forgotten", Name: "result.out"}, protocol.TypeOutputOK, &out)
	if err == nil || !strings.Contains(err.Error(), "unknown job") {
		t.Fatalf("result.out of the forgotten job: %q, %v; want unknown job", out.Data, err)
	}
	spend, rows := fs.DB.Spend("alice"), fs.DB.HistoryLen()
	run("forgotten")
	if got := fs.DB.Spend("alice"); got != spend+2 || fs.DB.HistoryLen() != rows+1 {
		t.Fatalf("the forgotten ID's new run: alice spent %v and the history holds %d rows, want %v and %d", got, fs.DB.HistoryLen(), spend+2, rows+1)
	}
	if err := commitAs("bob", bobToken, "forgotten"); err == nil || !strings.Contains(err.Error(), "already submitted") {
		t.Fatalf("commit of the re-run job by another user: %v, want already submitted", err)
	}
	// Far past the bound: the newest still held, every older one free.
	fill(3 * maxRetired)
	if err := status(fmt.Sprintf("filler-%d", filled-1)); err != nil || held() != maxRetired {
		t.Fatalf("after %d more: the newest answers %v, %d jobs held", 3*maxRetired, err, held())
	}
	if err := status("kept"); err == nil || !strings.Contains(err.Error(), "unknown job") {
		t.Fatalf("status of the once-kept job, now forgotten: %v; want unknown job", err)
	}
	if err := commitAs("bob", bobToken, "kept"); err != nil {
		t.Fatalf("commit of the once-kept job, now forgotten, by another user: %v", err)
	}
}
