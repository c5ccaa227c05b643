package central

import (
	"slices"
	"strings"
	"sync"
	"time"

	"faucets/internal/protocol"
	"faucets/internal/qos"
	"faucets/internal/weather"
)

// Federation implements the distributed Faucets system §5.1 anticipates:
// "in future, the broadcast itself will be handled by a distributed
// Faucets system, making the potential-server selection scale up, even
// in the presence of millions of job submissions a day."
//
// A Central Server with peers pulls each peer's digest — its live local
// directory and local weather summary — once per gossip interval and
// caches it under the address it dialed. Directory and weather reads
// merge that cache and never touch the network, so clients keep a single
// point of contact, Compute Servers register with whichever Central
// Server is closest (or, on a sharded mesh, with the one owning their
// name), and a hung or partitioned peer costs freshness, never latency:
// its entries linger for gossipStaleAfter and then drop out. Whether the
// peers also partition ownership is shardmesh.go's business; nothing
// here asks.

// DefaultGossipInterval is the digest pull cadence when GossipInterval
// is not positive.
const DefaultGossipInterval = 500 * time.Millisecond

// remoteDigest is the cached digest of one peer.
type remoteDigest struct {
	at      time.Time             // when the pull that fetched it was sent
	servers []protocol.ServerInfo // in name order, as appendFederated merges them
	weather protocol.WeatherDigest
}

// SetPeers installs the peer Central Server addresses of an un-sharded
// federation. A ring member's peers are the rest of its ring.
func (s *Server) SetPeers(addrs []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.peers = append([]string(nil), addrs...)
}

// Peers returns the Central Servers this one asks — for digests, for
// vouching on a token: every other ring member when Ring is set, the
// SetPeers list otherwise.
func (s *Server) Peers() []string {
	if s.Ring != nil {
		var out []string
		for _, a := range s.Ring.Addrs() {
			if a != s.SelfAddr {
				out = append(out, a)
			}
		}
		return out
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.peers...)
}

func (s *Server) gossipInterval() time.Duration {
	if s.GossipInterval > 0 {
		return s.GossipInterval
	}
	return DefaultGossipInterval
}

// gossipStaleAfter is how old a peer digest may be before its entries
// stop being served — the moment a dead peer's directory contribution
// vanishes from the federation.
func (s *Server) gossipStaleAfter() time.Duration { return 5 * s.gossipInterval() }

// StartGossip launches the periodic digest pull from every peer. The
// first round runs at once, so a (re)started server has a warm directory
// before its first tick. No-op without peers.
func (s *Server) StartGossip() {
	if len(s.Peers()) == 0 {
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.GossipOnce()
		ticker := time.NewTicker(s.gossipInterval())
		defer ticker.Stop()
		for {
			select {
			case <-s.closed:
				return
			case <-ticker.C:
				s.GossipOnce()
			}
		}
	}()
}

// GossipOnce pulls every peer's digest concurrently and waits for the
// round to finish. Unreachable peers are skipped — the digest cached
// from them goes stale and expires, exactly the degradation a partition
// should produce.
func (s *Server) GossipOnce() {
	var wg sync.WaitGroup
	for _, addr := range s.Peers() {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			sent := time.Now()
			var d protocol.GossipOK
			err := s.peerRPC().Call(addr, s.RPCTimeout, protocol.TypeGossipReq, protocol.GossipReq{}, protocol.TypeGossipOK, &d)
			if err == nil {
				s.storeDigest(addr, sent, d)
			}
		}(addr)
	}
	wg.Wait()
}

// localDigest snapshots this server's live directory and local weather
// summary. The weather digest is built from the LOCAL fleet and the
// local contract aggregate only — never from merged weather — so
// digests compose without double counting.
func (s *Server) localDigest() protocol.GossipOK {
	fleet, used, total := s.fleetScan()
	var r weather.Report
	s.wagg.Fill(&r)
	return protocol.GossipOK{
		// Servers(nil) publishes UsedPE per entry, so pullers can serve
		// posted-price weather for remote machines too.
		Servers: s.Servers(nil),
		Weather: protocol.WeatherDigest{
			Servers:        fleet,
			TotalPE:        total,
			UsedPE:         used,
			Contracts:      r.Contracts,
			MeanMultiplier: r.MeanMultiplier,
		},
	}
}

// storeDigest caches the digest pulled from addr, stamped with the
// instant the pull was sent. Rounds may overlap (a slow reply, a manual
// GossipOnce beside the ticker): the reply to an older request never
// overwrites what a newer one fetched.
func (s *Server) storeDigest(addr string, sent time.Time, d protocol.GossipOK) {
	s.remoteMu.Lock()
	if prev, ok := s.remotes[addr]; ok && !sent.After(prev.at) {
		s.remoteMu.Unlock()
		return
	}
	// A peer serves its listing in name order already; the merge on the
	// read path relies on it, so it is not taken on trust.
	slices.SortStableFunc(d.Servers, byName)
	s.remotes[addr] = remoteDigest{at: sent, servers: d.Servers, weather: d.Weather}
	s.remoteMu.Unlock()
	s.met.gossipRecv.Inc()
	s.invalidateWeather()
}

// byName orders directory entries by server name.
func byName(a, b protocol.ServerInfo) int { return strings.Compare(a.Spec.Name, b.Spec.Name) }

// compareName orders a directory entry against a server name.
func compareName(e protocol.ServerInfo, name string) int { return strings.Compare(e.Spec.Name, name) }

// appendFederated appends to out the union of the local filtered
// directory and every unexpired peer digest, deduplicated by server name
// (local entries win) and in name order. It reads the gossip cache only:
// no peer is dialed on the auction path.
func (s *Server) appendFederated(out []protocol.ServerInfo, c *qos.Contract) []protocol.ServerInfo {
	from := len(out)
	out = s.appendServers(out, c)
	stale := s.gossipStaleAfter()
	now := time.Now()
	s.remoteMu.Lock()
	defer s.remoteMu.Unlock()
	for _, d := range s.remotes {
		if now.Sub(d.at) <= stale {
			out = mergeByName(out, from, d.servers, c)
		}
	}
	return out
}

// mergeByName merges add, in name order, into the name-ordered listing
// out[from:], in place: each entry of add that matches the contract and
// whose name is not already listed is appended, and the listing put back
// in order if any was.
func mergeByName(out []protocol.ServerInfo, from int, add []protocol.ServerInfo, c *qos.Contract) []protocol.ServerInfo {
	n := len(out)
	for i := range add {
		name := add[i].Spec.Name
		if len(out) > n && out[len(out)-1].Spec.Name == name {
			continue // add lists the name twice: the first match stands
		}
		_, listed := slices.BinarySearchFunc(out[from:n], name, compareName)
		if !listed && (c == nil || add[i].Matches(c)) {
			out = append(out, add[i])
		}
	}
	if len(out) > n {
		slices.SortStableFunc(out[from:], byName)
	}
	return out
}

// mergeRemoteWeather folds unexpired peer weather digests into a local
// report — fleet counts add up and the mean price multiplier is
// contract-count weighted — and returns the peers' busy PE count for the
// caller's utilization. Bucket multipliers stay local-only: they are
// advisory and would bloat every digest. With no digest it changes
// nothing.
func (s *Server) mergeRemoteWeather(r *weather.Report) (used int) {
	stale := s.gossipStaleAfter()
	now := time.Now()
	wsum := r.MeanMultiplier * float64(r.Contracts)
	local := r.Contracts
	s.remoteMu.Lock()
	for _, d := range s.remotes {
		if now.Sub(d.at) > stale {
			continue
		}
		r.Servers += d.weather.Servers
		r.TotalPE += d.weather.TotalPE
		used += d.weather.UsedPE
		r.Contracts += d.weather.Contracts
		wsum += d.weather.MeanMultiplier * float64(d.weather.Contracts)
	}
	s.remoteMu.Unlock()
	if r.Contracts > local {
		r.MeanMultiplier = wsum / float64(r.Contracts)
	}
	return used
}

// verifyViaPeers asks every peer to vouch for a user's token,
// concurrently, first positive answer wins. Used when a daemon relays
// credentials of a user whose account lives on another Central Server
// in the federation. The old sequential walk cost up to
// len(peers)×RPCTimeout on a cache-cold verify when early peers were
// partitioned; the fan-out bounds the worst case at one timeout.
// Verification is read-only, so it rides the pooled federation
// connections.
func (s *Server) verifyViaPeers(user, token string) bool {
	peers := s.Peers()
	if len(peers) == 0 {
		return false
	}
	// Buffered to len(peers): stragglers after the first positive answer
	// park their result in the buffer and exit — no goroutine leak.
	results := make(chan bool, len(peers))
	for _, addr := range peers {
		go func(addr string) {
			var ok protocol.VerifyOK
			err := s.peerRPC().Call(addr, s.RPCTimeout, protocol.TypePeerVerifyReq,
				protocol.PeerVerifyReq{User: user, Token: token}, protocol.TypeVerifyOK, &ok)
			results <- err == nil
		}(addr)
	}
	for range peers {
		if <-results {
			return true
		}
	}
	return false
}
