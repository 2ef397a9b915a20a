// Package cluster is the distributed serving tier: N ipcd nodes shard
// the solve/simulate coalescing keyspace by rendezvous hashing over the
// service layer's flight keys — the validated request parameters, e.g.
// "solve|a=2|n=1|h=1|x=1140|nl=false" — forward misses to the owning
// peer over HTTP and keep its answer, coalesce cluster-wide on the
// owner's in-flight solve, and replicate hot entries to the key's
// next-ranked member. Because every response body is deterministic JSON
// (internal/service's encoder), a forwarded or replicated answer is
// byte-identical to a local computation, and can be served again
// without invalidation — the paper's argument that the communication
// substrate, not the endpoints, should own message movement, applied to
// the serving tier itself.
package cluster

import (
	"cmp"
	"slices"

	"repro/internal/rng"
)

// Ring is an immutable rendezvous-hash (highest-random-weight) placement
// over a member set. Nodes are identified by their advertised base URL.
// Every member ranks a key by weight(key, member), and the key's owner is
// the member with the highest weight. The ranking is a pure function of
// the member set, so every member that agrees on the member set agrees
// on every key's owner. A join moves only the keys the joiner now
// outranks everyone on, and a leave moves only the leaver's keys.
type Ring struct {
	members []string // sorted, distinct
	hashes  []uint64 // fnv1a(members[i])
}

// BuildRing constructs the ring for members (deduplicated, sorted).
func BuildRing(members []string) *Ring {
	r := &Ring{}
	for _, m := range members {
		if m != "" {
			r.members = append(r.members, m)
		}
	}
	slices.Sort(r.members)
	r.members = slices.Compact(r.members)
	r.hashes = make([]uint64, len(r.members))
	for i, m := range r.members {
		r.hashes[i] = fnv1a(m)
	}
	return r
}

// fnv1a is 64-bit FNV-1a over the string's bytes — deterministic across
// processes and Go versions, which maphash is not.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// weight is member i's rank for a key hashing to k. FNV-1a alone spreads
// strings that differ in a byte or two poorly, so the SplitMix64
// finalizer mixes the pair into a uniform weight.
func (r *Ring) weight(k uint64, i int) uint64 { return rng.Mix(k ^ r.hashes[i]) }

// Members reports the ring's member set, sorted.
func (r *Ring) Members() []string {
	return append([]string(nil), r.members...)
}

// Owner reports the member owning key: the one with the highest weight,
// the first in sorted order on a tie. An empty ring owns nothing ("").
func (r *Ring) Owner(key string) string {
	k := fnv1a(key)
	owner, best := "", uint64(0)
	for i := range r.members {
		if w := r.weight(k, i); owner == "" || w > best {
			owner, best = r.members[i], w
		}
	}
	return owner
}

// Replicas reports the n members ranked highest for key — the owner
// first, then the replica(s) that receive the owner's hot entries.
// Fewer members than n shortens the slice.
func (r *Ring) Replicas(key string, n int) []string {
	if len(r.members) == 0 || n <= 0 {
		return nil
	}
	k := fnv1a(key)
	order := make([]int, len(r.members))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(r.weight(k, b), r.weight(k, a)) })
	out := make([]string, min(n, len(order)))
	for i := range out {
		out[i] = r.members[order[i]]
	}
	return out
}
