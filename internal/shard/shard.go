// Package shard implements the consistent-hash ring that partitions
// the Central Server control plane into a cooperating mesh.
//
// Two key domains share one ring: users (accounting, quotas, auth,
// settlement) hash under a "u/" prefix and server names (the machine
// directory) under "s/", so the same shard membership covers both
// without the domains colliding. Each shard address is expanded into a
// fixed number of virtual nodes so ownership spreads evenly even with
// two or three shards, and adding or removing one shard only moves the
// keys adjacent to its vnodes.
package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
)

// vnodesPerShard is the virtual-node fanout per member. 64 vnodes keeps
// the worst/best ownership spread within a few percent at small ring
// sizes while the sorted-points search stays a handful of cache lines.
const vnodesPerShard = 64

type point struct {
	hash uint64
	addr string
}

// Ring is an immutable consistent-hash ring over shard addresses.
// Construct with New or Parse; a nil Ring means "unsharded".
type Ring struct {
	addrs  []string
	points []point // sorted by hash
}

// New builds a ring from the full ordered list of shard addresses.
// Addresses are deduplicated; empty entries are ignored. Returns nil
// when no addresses remain, so callers can treat the result uniformly
// as "unsharded".
func New(addrs []string) *Ring {
	seen := make(map[string]bool, len(addrs))
	r := &Ring{}
	for _, a := range addrs {
		a = strings.TrimSpace(a)
		if a == "" || seen[a] {
			continue
		}
		seen[a] = true
		r.addrs = append(r.addrs, a)
	}
	if len(r.addrs) == 0 {
		return nil
	}
	r.points = make([]point, 0, len(r.addrs)*vnodesPerShard)
	for _, a := range r.addrs {
		for v := 0; v < vnodesPerShard; v++ {
			r.points = append(r.points, point{hash: hash64(fmt.Sprintf("%s#%d", a, v)), addr: a})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// Parse builds a ring from a comma-separated address list, the format
// accepted by the faucets-server -ring flag. An empty spec yields a nil
// ring (unsharded); a spec with entries that all collapse to empty is
// an error, since the operator clearly intended sharding.
func Parse(spec string) (*Ring, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	parts := strings.Split(spec, ",")
	r := New(parts)
	if r == nil {
		return nil, fmt.Errorf("shard: ring spec %q has no usable addresses", spec)
	}
	return r, nil
}

// Size reports the number of distinct shard members. A nil ring has
// size zero.
func (r *Ring) Size() int {
	if r == nil {
		return 0
	}
	return len(r.addrs)
}

// Addrs returns the member addresses in their original (deduplicated)
// order. The caller must not mutate the returned slice.
func (r *Ring) Addrs() []string {
	if r == nil {
		return nil
	}
	return r.addrs
}

// OwnerUser returns the shard address owning a user key: accounting,
// quotas, sessions, and settlement for that user all live there.
func (r *Ring) OwnerUser(user string) string { return r.owner("u/" + user) }

// OwnerServer returns the shard address owning a server-directory key:
// the daemon registers there and that shard polls its liveness.
func (r *Ring) OwnerServer(name string) string { return r.owner("s/" + name) }

func (r *Ring) owner(key string) string {
	if r == nil || len(r.points) == 0 {
		return ""
	}
	h := hash64(key)
	// First point with hash >= h, wrapping to points[0].
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].addr
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer. Raw FNV-1a of near-identical
// strings (vnode suffixes "#0".."#63") clusters in the high bits,
// which skews ownership badly at small ring sizes; the finalizer
// restores avalanche so the sorted points interleave.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
