package central

import (
	"errors"
	"fmt"

	"faucets/internal/protocol"
)

// This file implements ownership on the sharded Central Server mesh: a
// consistent-hash ring (internal/shard) partitions users (accounting,
// quotas, sessions, settlement) and server names (the directory) across
// cooperating Central Server processes. Each shard owns its own WAL and
// serves only its key range; requests that land on the wrong shard get
// a typed NOT_OWNER redirect (clients re-login at the owner) or, for
// settlements, are forwarded one hop server-side so daemons never need
// ring awareness. With N shards, each daemon is polled by exactly its
// owning shard instead of by all N; what the shards know of each other's
// directories travels by the same gossip every federation uses
// (federation.go).
//
// Everything here is gated on sharded(): with Ring unset the server
// owns every key.

// sharded reports whether this server is a member of a multi-shard
// ring. A single-member ring is deliberately unsharded: it owns
// everything, so every check short-circuits and behavior stays
// identical to the singleton server.
func (s *Server) sharded() bool {
	return s.Ring.Size() > 1 && s.SelfAddr != ""
}

// ownsUser reports whether this shard owns a user's accounting range.
func (s *Server) ownsUser(user string) bool {
	return !s.sharded() || s.Ring.OwnerUser(user) == s.SelfAddr
}

// ownsServer reports whether this shard owns a directory name.
func (s *Server) ownsServer(name string) bool {
	return !s.sharded() || s.Ring.OwnerServer(name) == s.SelfAddr
}

// forwardSettle relays a settlement one hop to the user-owning shard as
// a ForwardSettleReq — a distinct frame type the receiver settles
// locally and can never forward again, so the hop count is bounded by
// construction. Transport failures come back retryable: the daemon's
// durable outbox redelivers until the owner is reachable, which is what
// makes killing a shard lose no settlements.
func (s *Server) forwardSettle(req protocol.SettleReq) error {
	owner := s.Ring.OwnerUser(req.User)
	var ok protocol.SettleOK
	err := s.peerRPC().Call(owner, s.RPCTimeout, protocol.TypeForwardSettleReq,
		protocol.ForwardSettleReq(req), protocol.TypeSettleOK, &ok)
	if err == nil {
		return nil
	}
	var remote *protocol.RemoteError
	if errors.As(err, &remote) {
		return err // the owner answered; keep its verdict and retryability
	}
	return protocol.MarkRetryable(fmt.Errorf("central: forward settle %s to shard %s: %w", req.JobID, owner, err))
}
