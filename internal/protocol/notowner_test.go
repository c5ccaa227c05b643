package protocol

import (
	"errors"
	"net"
	"testing"
	"time"
)

func TestMarkNotOwnerClassification(t *testing.T) {
	base := errors.New("central: user alice lives elsewhere")
	err := MarkNotOwner(base, "10.0.0.2:9000")
	owner, ok := NotOwnerAddr(err)
	if !ok || owner != "10.0.0.2:9000" {
		t.Fatalf("NotOwnerAddr = %q,%v", owner, ok)
	}
	if IsRetryable(err) {
		t.Fatal("NOT_OWNER must not be retryable — the caller must redirect")
	}
	if !errors.Is(err, base) {
		t.Fatal("MarkNotOwner must wrap the cause")
	}
	if MarkNotOwner(nil, "x") != nil {
		t.Fatal("MarkNotOwner(nil) must stay nil")
	}
	if _, ok := NotOwnerAddr(errors.New("plain")); ok {
		t.Fatal("false positive")
	}
	if _, ok := NotOwnerAddr(nil); ok {
		t.Fatal("nil classified")
	}
}

// The NOT_OWNER classification and the embedded owner address must
// survive the trip through ErrorBody — receivers only see RemoteError.
func TestNotOwnerSurvivesWire(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	go func() {
		f, err := ReadFrame(server)
		if err != nil || f.Type != TypeAuthReq {
			return
		}
		rc := NewReplyConn(server)
		rc.SetID(f.ID)
		_ = WriteErrorFrom(rc, MarkNotOwner(errors.New("wrong shard"), "10.9.9.9:7777"))
	}()
	var reply AuthOK
	err := CallTimeout(client, time.Second, TypeAuthReq, AuthReq{User: "u", Password: "p"}, TypeAuthOK, &reply)
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	owner, ok := NotOwnerAddr(err)
	if !ok || owner != "10.9.9.9:7777" {
		t.Fatalf("redirect lost over the wire: %q,%v (err=%v)", owner, ok, err)
	}
	if IsRetryable(err) {
		t.Fatal("NOT_OWNER arrived retryable")
	}
}
