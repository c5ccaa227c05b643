package daemon

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"faucets/internal/protocol"
)

// stubCentralRetryable registers/verifies like stubCentral but answers
// the first deferUntil settlement deliveries with a *retryable* error
// frame (the shape the real Central Server produces when its WAL group
// commit fails) and accepts from then on.
func stubCentralRetryable(t *testing.T, deferUntil int32, attempts, settled *atomic.Int32) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				rc := protocol.NewReplyConn(conn)
				for {
					f, err := protocol.ReadFrame(conn)
					if err != nil {
						return
					}
					rc.SetID(f.ID)
					switch f.Type {
					case protocol.TypeRegisterReq:
						_ = protocol.WriteFrame(rc, protocol.TypeRegisterOK, protocol.RegisterOK{})
					case protocol.TypeVerifyReq:
						_ = protocol.WriteFrame(rc, protocol.TypeVerifyOK, protocol.VerifyOK{})
					case protocol.TypeSettleReq:
						if attempts.Add(1) <= deferUntil {
							_ = protocol.WriteErrorFrom(rc, protocol.MarkRetryable(errDurability))
							continue
						}
						settled.Add(1)
						_ = protocol.WriteFrame(rc, protocol.TypeSettleOK, protocol.SettleOK{})
					default:
						_ = protocol.WriteErrorFrom(rc, errors.New("stub: "+f.Type))
					}
				}
			}()
		}
	}()
	return l.Addr().String()
}

var errDurability = &protocol.RemoteError{Message: "durability: wal sync failed"}

// TestSettlementRetryableKeptQueued: a settlement the Central Server
// refused *retryably* (delivered, accepted in principle, but not made
// durable) must stay in the outbox and be redelivered until it sticks —
// unlike a plain refusal, which is dropped as poison.
func TestSettlementRetryableKeptQueued(t *testing.T) {
	var attempts, settled atomic.Int32
	addr := stubCentralRetryable(t, 3, &attempts, &settled)
	d, daddr := startDaemon(t, Config{
		CentralAddr: addr,
		RPCTimeout:  500 * time.Millisecond,
		SettleRetry: 20 * time.Millisecond,
	})
	conn := dial(t, daddr)
	runJobOverWire(t, conn, "j-retryable", "tok", 100)

	// The first three deliveries are deferred; the outbox must hold the
	// record across them and drain only after the fourth is accepted.
	deadline := time.Now().Add(10 * time.Second)
	for settled.Load() == 0 || d.OutboxLen() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("attempts=%d settled=%d outbox=%d: retryable settlement never delivered",
				attempts.Load(), settled.Load(), d.OutboxLen())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := attempts.Load(); got < 4 {
		t.Fatalf("central saw %d deliveries, want ≥ 4 (3 deferrals + 1 accept)", got)
	}
	if got := settled.Load(); got != 1 {
		t.Fatalf("central accepted %d settlements, want exactly 1", got)
	}
}
