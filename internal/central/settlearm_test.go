package central

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"faucets/internal/accounting"
	"faucets/internal/protocol"
)

// replies is a connection that hands every reply frame written to it,
// from whichever goroutine, to its channel.
type replies chan protocol.Frame

func (replies) Read([]byte) (int, error) { return 0, io.EOF }
func (r replies) Write(p []byte) (int, error) {
	f, err := protocol.ReadFrame(bytes.NewReader(p))
	if err != nil {
		return 0, err
	}
	r <- f
	return len(p), nil
}

// settleFrame encodes req as a binary settle_req frame and reads it
// back, as a connection's reader hands it to dispatch.
func settleFrame(tb testing.TB, id uint64, req protocol.SettleReq) protocol.Frame {
	tb.Helper()
	buf, err := protocol.AppendFrame(nil, protocol.CodecBinary, id, protocol.TypeSettleReq, req)
	if err != nil {
		tb.Fatal(err)
	}
	f, err := protocol.NewFrameReader(bytes.NewReader(buf)).Next()
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

// TestSettleArmAnswersEachRequest: settlements decoded into one
// connection's scratch, each acknowledged by its own deferred reply, are
// booked as sent — users, servers and prices not carried from one to the
// next — and each reply carries its own request's frame ID.
func TestSettleArmAnswersEachRequest(t *testing.T) {
	s := New(accounting.Dollars)
	defer s.Close()
	for _, u := range []string{"alice", "bob"} {
		if err := s.Auth.AddUser(u, "pw", ""); err != nil {
			t.Fatal(err)
		}
	}
	out := make(replies, 1)
	conn := protocol.NewReplyConn(out)
	reqs := []protocol.SettleReq{
		{JobID: "j-0", User: "alice", Server: "turing", App: "synth", MaxPE: 8, Price: 3, CPUSeconds: 10},
		{JobID: "j-1", User: "bob", Server: "lemieux", App: "namd", MaxPE: 16, Price: 5, CPUSeconds: 20},
		{JobID: "j-2", User: "alice", Server: "lemieux", App: "synth", MaxPE: 4, Price: 7, CPUSeconds: 30},
	}
	for i, req := range reqs {
		f := settleFrame(t, uint64(100+i), req)
		conn.SetID(f.ID) // as the server's read loop does
		if err := s.dispatch(conn, f); err != nil {
			t.Fatal(err)
		}
		if f := <-out; f.Type != protocol.TypeSettleOK || f.ID != uint64(100+i) {
			t.Fatalf("settlement %d answered %s with ID %d", i, f.Type, f.ID)
		}
	}
	if got, want := s.DB.Revenue("lemieux"), 5.0+7.0; got != want {
		t.Errorf("lemieux earned %v, want %v", got, want)
	}
	if got, want := s.DB.Spend("alice"), 3.0+7.0; got != want {
		t.Errorf("alice spent %v, want %v", got, want)
	}
}

// settleDispatchCase is one settlement through the Central Server's arm
// on a warm connection, from the one daemon and user the connection's
// last came from, each for a fresh job: decode into the scratch, the
// deferred reply, the booking on an ephemeral database.
func settleDispatchCase(tb testing.TB, n int) func() {
	s := New(accounting.Dollars)
	tb.Cleanup(s.Close)
	frames := make([]protocol.Frame, n)
	for i := range frames {
		frames[i] = settleFrame(tb, uint64(i+1), protocol.SettleReq{JobID: fmt.Sprintf("job-%016x", i),
			User: "alice", Server: "turing", App: "synth", MinPE: 2, MaxPE: 16, Price: 16.25, CPUSeconds: 2000})
	}
	wrote := make(signalling, 1)
	conn := protocol.NewReplyConn(wrote)
	next := 0
	return func() {
		if err := s.dispatch(conn, frames[next]); err != nil {
			tb.Fatal(err)
		}
		<-wrote
		next++
	}
}

// signalling is a connection that announces each reply written to it.
type signalling chan struct{}

func (signalling) Read([]byte) (int, error) { return 0, io.EOF }
func (s signalling) Write(p []byte) (int, error) {
	s <- struct{}{}
	return len(p), nil
}
