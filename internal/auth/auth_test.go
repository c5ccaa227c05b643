package auth

import (
	"errors"
	"testing"
	"time"
)

func TestAddUserAndLogin(t *testing.T) {
	a := New(time.Hour)
	if err := a.AddUser("alice", "pw", "cluster-a"); err != nil {
		t.Fatal(err)
	}
	tok, err := a.Login("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	if tok == "" {
		t.Fatal("empty token")
	}
	u, err := a.Verify(tok)
	if err != nil || u != "alice" {
		t.Fatalf("verify: %q %v", u, err)
	}
	if len(a.users) != 1 || len(a.sessions) != 1 {
		t.Fatalf("users=%d sessions=%d", len(a.users), len(a.sessions))
	}
}

func TestAddUserValidation(t *testing.T) {
	a := New(time.Hour)
	if err := a.AddUser("", "pw", ""); !errors.Is(err, ErrEmptyField) {
		t.Fatalf("err=%v", err)
	}
	if err := a.AddUser("x", "", ""); !errors.Is(err, ErrEmptyField) {
		t.Fatalf("err=%v", err)
	}
	_ = a.AddUser("bob", "pw", "")
	if err := a.AddUser("bob", "other", ""); !errors.Is(err, ErrUserExists) {
		t.Fatalf("err=%v", err)
	}
}

func TestLoginWrongPassword(t *testing.T) {
	a := New(time.Hour)
	_ = a.AddUser("alice", "pw", "")
	if _, err := a.Login("alice", "wrong"); !errors.Is(err, ErrBadCreds) {
		t.Fatalf("err=%v", err)
	}
	if _, err := a.Login("nobody", "pw"); !errors.Is(err, ErrBadCreds) {
		t.Fatalf("err=%v", err)
	}
}

func TestVerifyUnknownToken(t *testing.T) {
	a := New(time.Hour)
	if _, err := a.Verify("deadbeef"); !errors.Is(err, ErrBadToken) {
		t.Fatalf("err=%v", err)
	}
}

func TestTokenExpiry(t *testing.T) {
	a := New(time.Minute)
	now := time.Unix(1000, 0)
	a.SetClock(func() time.Time { return now })
	_ = a.AddUser("alice", "pw", "")
	tok, _ := a.Login("alice", "pw")
	if _, err := a.Verify(tok); err != nil {
		t.Fatalf("fresh token rejected: %v", err)
	}
	now = now.Add(2 * time.Minute)
	if _, err := a.Verify(tok); !errors.Is(err, ErrTokenExpired) {
		t.Fatalf("err=%v", err)
	}
	// Expired token is reaped.
	if len(a.sessions) != 0 {
		t.Fatal("expired session not removed")
	}
}

func TestVerifyUser(t *testing.T) {
	a := New(time.Hour)
	_ = a.AddUser("alice", "pw", "")
	_ = a.AddUser("bob", "pw", "")
	tok, _ := a.Login("alice", "pw")
	if err := a.VerifyUser("alice", tok); err != nil {
		t.Fatal(err)
	}
	if err := a.VerifyUser("bob", tok); !errors.Is(err, ErrBadToken) {
		t.Fatalf("token accepted for wrong user: %v", err)
	}
}

func TestHomeCluster(t *testing.T) {
	a := New(time.Hour)
	_ = a.AddUser("alice", "pw", "cluster-a")
	if h := a.HomeCluster("alice"); h != "cluster-a" {
		t.Fatalf("home=%q", h)
	}
	if h := a.HomeCluster("nobody"); h != "" {
		t.Fatalf("home for unknown user=%q", h)
	}
}

func TestTokensUniquePerLogin(t *testing.T) {
	a := New(time.Hour)
	_ = a.AddUser("alice", "pw", "")
	t1, _ := a.Login("alice", "pw")
	t2, _ := a.Login("alice", "pw")
	if t1 == t2 {
		t.Fatal("two logins produced the same token")
	}
}

func TestConcurrentLoginsAndVerify(t *testing.T) {
	a := New(time.Hour)
	_ = a.AddUser("alice", "pw", "")
	done := make(chan error, 50)
	for i := 0; i < 50; i++ {
		go func() {
			tok, err := a.Login("alice", "pw")
			if err != nil {
				done <- err
				return
			}
			_, err = a.Verify(tok)
			done <- err
		}()
	}
	for i := 0; i < 50; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestExpiredSessionsSwept: a token never presented again after its TTL
// must not stay in the session table for good; logins reap the expired.
func TestExpiredSessionsSwept(t *testing.T) {
	a := New(time.Minute)
	now := time.Unix(1000, 0)
	a.SetClock(func() time.Time { return now })
	_ = a.AddUser("alice", "pw", "")
	for i := 0; i < 1000; i++ {
		if _, err := a.Login("alice", "pw"); err != nil {
			t.Fatal(err)
		}
	}
	now = now.Add(2 * time.Minute)
	for i := 0; i < 1000; i++ {
		if _, err := a.Login("alice", "pw"); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(a.sessions); n > 1000 {
		t.Fatalf("%d sessions after 1000 expired and 1000 live logins; the expired are never reaped", n)
	}
}
