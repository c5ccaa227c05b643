package central

import (
	"testing"

	"faucets/internal/accounting"
	"faucets/internal/protocol"
	"faucets/internal/qos"
)

// TestAdmitBudgetAndPriorityLane: the base budget sheds at MaxInflight,
// the priority lane keeps a quarter extra headroom for settlements, and
// releasing slots reopens admission.
func TestAdmitBudgetAndPriorityLane(t *testing.T) {
	s := New(accounting.Dollars)
	defer s.Close()
	s.MaxInflight = 4

	var held []func()
	for i := 0; i < 4; i++ {
		rel, err := s.admit(false)
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		held = append(held, rel)
	}
	if _, err := s.admit(false); !protocol.IsOverloaded(err) || !protocol.IsRetryable(err) {
		t.Fatalf("5th base admit = %v, want typed retryable OVERLOADED", err)
	}
	// Priority lane: limit/4+1 = 2 extra slots past the base budget.
	for i := 0; i < 2; i++ {
		rel, err := s.admitSettle()
		if err != nil {
			t.Fatalf("priority admit %d: %v", i, err)
		}
		held = append(held, rel)
	}
	if _, err := s.admitSettle(); !protocol.IsOverloaded(err) {
		t.Fatalf("over-priority admit = %v, want OVERLOADED", err)
	}
	for _, rel := range held {
		rel()
	}
	rel, err := s.admit(false)
	if err != nil {
		t.Fatalf("admit after release: %v", err)
	}
	rel()
	if got := s.met.shedInflight.Value(); got != 2 {
		t.Fatalf("shed counter = %d, want 2", got)
	}
}

// TestAdmitDisabledByDefault: MaxInflight zero means no shedding, no
// bookkeeping overhead.
func TestAdmitDisabledByDefault(t *testing.T) {
	s := New(accounting.Dollars)
	defer s.Close()
	for i := 0; i < 100; i++ {
		rel, err := s.admit(i%2 == 0)
		if err != nil {
			t.Fatalf("admit with no limit: %v", err)
		}
		rel()
	}
	if n := s.inflight.Load(); n != 0 {
		t.Fatalf("inflight = %d with admission disabled", n)
	}
}

// TestDeadlineTriage: an auction whose hard deadline no live matching
// server can meet even best-case is shed immediately; meetable jobs,
// deadline-free jobs, and jobs with no matching servers at all pass.
func TestDeadlineTriage(t *testing.T) {
	s := New(accounting.Dollars)
	defer s.Close()
	s.MaxInflight = 8
	if err := s.RegisterDaemon(info("small", 8, 512, "app")); err != nil {
		t.Fatal(err)
	}

	doomed := &qos.Contract{App: "app", MinPE: 1, MaxPE: 8, Work: 1e6,
		EffMin: 1, EffMax: 1, Deadline: 10}
	if _, err := s.admitAuction(doomed); !protocol.IsOverloaded(err) {
		t.Fatalf("unmeetable deadline admitted: %v", err)
	}
	if got := s.met.shedDeadline.Value(); got != 1 {
		t.Fatalf("deadline shed counter = %d, want 1", got)
	}

	meetable := &qos.Contract{App: "app", MinPE: 1, MaxPE: 8, Work: 8,
		EffMin: 1, EffMax: 1, Deadline: 100}
	rel, err := s.admitAuction(meetable)
	if err != nil {
		t.Fatalf("meetable job shed: %v", err)
	}
	rel()

	free := &qos.Contract{App: "app", MinPE: 1, MaxPE: 8, Work: 1e9, EffMin: 1, EffMax: 1}
	rel, err = s.admitAuction(free)
	if err != nil {
		t.Fatalf("deadline-free job shed: %v", err)
	}
	rel()

	// No live server matches: the empty directory is the auction's own
	// failure mode, not an overload — do not shed.
	orphan := &qos.Contract{App: "elsewhere", MinPE: 1, MaxPE: 8, Work: 1e6,
		EffMin: 1, EffMax: 1, Deadline: 1}
	rel, err = s.admitAuction(orphan)
	if err != nil {
		t.Fatalf("orphan job shed: %v", err)
	}
	rel()

	// Admission disabled: even the doomed job passes.
	s.MaxInflight = 0
	rel, err = s.admitAuction(doomed)
	if err != nil {
		t.Fatalf("triage ran with admission disabled: %v", err)
	}
	rel()
}

// TestOverloadSignalSurvivesWire: a shed auction must reach the client
// as a typed, retryable OVERLOADED error end to end, not a generic
// failure it would treat as fatal.
func TestOverloadSignalSurvivesWire(t *testing.T) {
	s := New(accounting.Dollars)
	s.MaxInflight = 8
	_ = s.Auth.AddUser("alice", "pw", "")
	if err := s.RegisterDaemon(info("small", 8, 512, "app")); err != nil {
		t.Fatal(err)
	}
	addr := startTCP(t, s)
	conn := dial(t, addr)

	var ok protocol.AuthOK
	if err := protocol.Call(conn, protocol.TypeAuthReq,
		protocol.AuthReq{User: "alice", Password: "pw"}, protocol.TypeAuthOK, &ok); err != nil {
		t.Fatal(err)
	}
	doomed := &qos.Contract{App: "app", MinPE: 1, MaxPE: 8, Work: 1e6,
		EffMin: 1, EffMax: 1, Deadline: 10}
	var reply protocol.ListServersOK
	err := protocol.Call(conn, protocol.TypeListServersReq,
		protocol.ListServersReq{Token: ok.Token, Contract: doomed}, protocol.TypeListServersOK, &reply)
	if !protocol.IsOverloaded(err) || !protocol.IsRetryable(err) {
		t.Fatalf("wire error = %v, want retryable OVERLOADED", err)
	}
}
