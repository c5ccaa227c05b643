package main

import (
	"os"
	"path/filepath"
	"testing"

	"faucets/internal/accounting"
	"faucets/internal/central"
)

func writeUsers(t *testing.T, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "users.txt")
	if err := os.WriteFile(p, []byte(content), 0o600); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLoadUsers(t *testing.T) {
	srv := central.New(accounting.Dollars)
	defer srv.Close()
	path := writeUsers(t, `
# comment lines and blanks are skipped

alice:secret:cluster-a
bob:hunter2
`)
	if err := loadUsers(srv, path); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Auth.Login("alice", "secret"); err != nil {
		t.Fatalf("alice login: %v", err)
	}
	if _, err := srv.Auth.Login("bob", "hunter2"); err != nil {
		t.Fatalf("bob login: %v", err)
	}
	if srv.Auth.HomeCluster("alice") != "cluster-a" {
		t.Fatalf("home=%q", srv.Auth.HomeCluster("alice"))
	}
	if srv.Auth.HomeCluster("bob") != "" {
		t.Fatal("bob should have no home cluster")
	}
}

func TestLoadUsersErrors(t *testing.T) {
	srv := central.New(accounting.Dollars)
	defer srv.Close()
	if err := loadUsers(srv, filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := writeUsers(t, "malformed-line-without-colon\n")
	if err := loadUsers(srv, bad); err == nil {
		t.Fatal("malformed line accepted")
	}
	dup := writeUsers(t, "alice:a\nalice:b\n")
	if err := loadUsers(srv, dup); err == nil {
		t.Fatal("duplicate user accepted")
	}
}
