// Package cluster is the distributed serving tier: N ipcd nodes shard
// the solve/simulate coalescing keyspace by consistent hashing (virtual
// nodes) over the service layer's flight keys — the validated request
// parameters, e.g. "solve|a=2|n=1|h=1|x=1140|nl=false" — forward
// misses to the owning peer over HTTP and keep its answer, coalesce
// cluster-wide on the owner's in-flight solve, and replicate hot
// entries to the key's next replica on the ring. Because every response
// body is deterministic JSON (internal/service's encoder), a forwarded
// or replicated answer is byte-identical to a local computation, and
// can be served again without invalidation — the paper's argument that
// the communication substrate, not the endpoints, should own message
// movement, applied to the serving tier itself.
package cluster

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// virtualNodes is the ring points each member contributes.
const virtualNodes = 64

// ringPoint is one virtual node: a position on the hash circle owned by
// a member.
type ringPoint struct {
	hash uint64
	node string
}

// Ring is an immutable consistent-hash ring over a member set. Nodes
// are identified by their advertised base URL; the ring is a pure
// function of the sorted members, so every member that agrees on
// the member set agrees on every key's owner.
type Ring struct {
	members []string // sorted
	points  []ringPoint
}

// BuildRing constructs the ring for members (deduplicated, sorted).
func BuildRing(members []string) *Ring {
	uniq := map[string]bool{}
	for _, m := range members {
		if m != "" {
			uniq[m] = true
		}
	}
	sorted := make([]string, 0, len(uniq))
	for m := range uniq {
		sorted = append(sorted, m)
	}
	sort.Strings(sorted)

	r := &Ring{members: sorted}
	r.points = make([]ringPoint, 0, len(sorted)*virtualNodes)
	for _, m := range sorted {
		for v := 0; v < virtualNodes; v++ {
			r.points = append(r.points, ringPoint{hash: ringHash(m + "#" + strconv.Itoa(v)), node: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// A full 64-bit collision between virtual nodes is vanishingly
		// rare; break it by node name so the ring stays deterministic.
		return r.points[i].node < r.points[j].node
	})
	return r
}

// ringHash is FNV-1a over the string — deterministic across processes
// and Go versions, which maphash is not.
func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// Members reports the ring's member set, sorted.
func (r *Ring) Members() []string {
	return append([]string(nil), r.members...)
}

// Owner reports the member owning key: the first virtual node at or
// clockwise after the key's hash. An empty ring owns nothing ("").
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.successor(ringHash(key))].node
}

// Replicas reports the first n distinct members clockwise from key's
// position — the owner first, then the replica(s) that receive the
// owner's hot entries. Fewer members than n shortens the slice.
func (r *Ring) Replicas(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	out := make([]string, 0, n)
	seen := map[string]bool{}
	for i := r.successor(ringHash(key)); len(out) < n; i = (i + 1) % len(r.points) {
		if m := r.points[i].node; !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out
}

// successor finds the index of the first ring point with hash >= h,
// wrapping past the top of the circle.
func (r *Ring) successor(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}
