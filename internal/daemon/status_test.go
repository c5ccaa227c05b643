package daemon

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"faucets/internal/protocol"
)

// TestStatusFinishedOnlyOnceOutputIsStaged: a status read books progress
// itself (catchUp), so it can find a job complete while the run loop is
// busy elsewhere. It must not say "finished" until finishJob has written
// the job's output: a client that reads "finished" fetches result.out
// next. Here the run loop is held inside the first job's settlement while
// the second job completes.
func TestStatusFinishedOnlyOnceOutputIsStaged(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var held, released sync.Once
	letGo := func() { released.Do(func() { close(release) }) }
	central := protocol.NewServer("central stub", func(rc *protocol.ReplyConn, f protocol.Frame) error {
		switch f.Type {
		case protocol.TypeRegisterReq:
			return protocol.WriteFrame(rc, protocol.TypeRegisterOK, protocol.RegisterOK{})
		case protocol.TypeSettleReq:
			held.Do(func() { close(entered); <-release })
			return protocol.WriteFrame(rc, protocol.TypeSettleOK, protocol.SettleOK{})
		}
		return fmt.Errorf("stub: %s", f.Type)
	}, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go central.Serve(l)
	t.Cleanup(central.Close)
	t.Cleanup(letGo) // runs first: the stub's handler must return for Close

	d, addr := startDaemon(t, Config{CentralAddr: l.Addr().String(), RPCTimeout: 5 * time.Second})
	conn := dial(t, addr)
	submitJob(t, d, "first", narrow(5))
	submitJob(t, d, "second", narrow(40))
	<-entered // the run loop is inside first's settlement

	// status answers one read and checks what it says: "finished" only
	// with result.out there to fetch.
	status := func() protocol.StatusOK {
		t.Helper()
		var st protocol.StatusOK
		if err := protocol.Call(conn, protocol.TypeStatusReq, protocol.StatusReq{JobID: "second"}, protocol.TypeStatusOK, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == "finished" {
			var out protocol.OutputOK
			if err := protocol.Call(conn, protocol.TypeOutputReq, protocol.OutputReq{JobID: "second", Name: "result.out"}, protocol.TypeOutputOK, &out); err != nil {
				t.Fatalf("status said finished, but result.out: %v", err)
			}
		}
		return st
	}
	deadline := time.Now().Add(10 * time.Second)
	for st := status(); st.Progress < 1; st = status() {
		if time.Now().After(deadline) {
			t.Fatalf("second never completed: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	letGo()
	for status().State != "finished" {
		if time.Now().After(deadline) {
			t.Fatal("second never reported finished once the run loop was free")
		}
		time.Sleep(time.Millisecond)
	}
}
