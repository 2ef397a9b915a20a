package service

import "sync"

// The preencoded-response cache. Every response body is deterministic
// JSON — identical requests yield byte-identical bodies — so a body,
// once encoded, is a pure function of its flight key and never needs
// invalidation: a cached entry can only ever be refreshed with the same
// bytes. That property turns the serving hot path into a hash lookup
// plus one Write: no decode of the solver's answer, no tree build, no
// re-encode, no per-request buffers.
//
// Two indexes cover the two ways a hit arrives:
//
//   - The typed parameter indexes (bySolve/bySim) serve the local fast
//     path. Deriving the canonical flight key for a solve builds a whole
//     GTPN net just to sign it; a comparable parameter struct is a free
//     map key, so the fast path never touches the solver at all.
//   - The string key index (byKey) serves the cluster tier: replica
//     pushes arrive keyed by the canonical flight key, and Route looks
//     entries up the same way. Locally computed entries appear in both
//     indexes; replica pushes only in byKey, so a replica's hit is
//     always observed (and counted) by the routing layer.
//
// The counters are plain integers updated under the cache mutex, so
// counting on the hit path never allocates.

// solveParams is a solve point's identity as a comparable value: the
// validated request fields, nothing derived.
type solveParams struct {
	arch            int
	conversations   int
	hosts           int
	serverComputeUS float64
	nonLocal        bool
}

// simParams is a simulate request's identity: the workload point plus
// the replication ensemble (the seed is part of the request, so it is
// part of the identity).
type simParams struct {
	solveParams
	seconds      int64
	seed         uint64
	replications int
}

// respEntry is one cached response. The LRU list is intrusive — prev
// and next live in the entry — so recency updates never allocate.
type respEntry struct {
	prev, next *respEntry
	key        string // canonical flight key
	body       []byte // preencoded response; immutable once stored
	kind       uint8
	solve      solveParams
	sim        simParams
}

const (
	entryKeyOnly uint8 = iota // replica push: flight key only
	entrySolve
	entrySim
)

// RespCacheStats is a point-in-time snapshot of the cache counters.
type RespCacheStats struct {
	Hits        int64 // responses served from cached bytes
	Misses      int64 // fast-path lookups that found nothing
	Evictions   int64 // entries dropped for capacity
	Stores      int64 // entries stored (local computes + replica pushes)
	Entries     int64 // current entry count
	Bytes       int64 // current sum of body bytes
	TraceBypass int64 // traced requests that skipped the fast path
}

// RespCache is the LRU-bounded preencoded-response cache. A nil
// *RespCache is a valid "caching disabled" cache: every method is a
// cheap nil-check no-op, mirroring the trace and counters contracts.
type RespCache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64 // 0 means unbounded
	curBytes   int64
	head, tail *respEntry // head = most recently used
	byKey      map[string]*respEntry
	bySolve    map[solveParams]*respEntry
	bySim      map[simParams]*respEntry

	counts RespCacheStats // the counters; Stats fills Entries and Bytes

	// onHighWater, when set, fires (outside the mutex) each time
	// curBytes crosses nextHighWater; the mark then doubles, so a
	// steadily growing cache journals a bounded number of events.
	onHighWater   func(bytes int64)
	nextHighWater int64
}

func newRespCache(maxEntries int, maxBytes int64) *RespCache {
	return &RespCache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		byKey:      map[string]*respEntry{},
		bySolve:    map[solveParams]*respEntry{},
		bySim:      map[simParams]*respEntry{},
	}
}

// getSolve looks a solve point up on the fast path. A miss is counted
// here; the hit is counted by served() only once the caller decides the
// entry is actually serveable (cluster entitlement may veto it).
func (c *RespCache) getSolve(p solveParams) (key string, body []byte, ok bool) {
	if c == nil {
		return "", nil, false
	}
	c.mu.Lock()
	e := c.bySolve[p]
	if e == nil {
		c.counts.Misses++
		c.mu.Unlock()
		return "", nil, false
	}
	c.moveToFrontLocked(e)
	key, body = e.key, e.body
	c.mu.Unlock()
	return key, body, true
}

// getSim is getSolve for simulate requests.
func (c *RespCache) getSim(p simParams) (key string, body []byte, ok bool) {
	if c == nil {
		return "", nil, false
	}
	c.mu.Lock()
	e := c.bySim[p]
	if e == nil {
		c.counts.Misses++
		c.mu.Unlock()
		return "", nil, false
	}
	c.moveToFrontLocked(e)
	key, body = e.key, e.body
	c.mu.Unlock()
	return key, body, true
}

// TraceBypass counts one traced request that skipped the fast path: a
// sampled trace exists to show the full pipeline, so traced requests
// never consult the typed indexes, and without this counter that skew
// would be invisible in the hit/miss ratio.
func (c *RespCache) TraceBypass() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.counts.TraceBypass++
	c.mu.Unlock()
}

// served counts one response actually answered from cached bytes.
func (c *RespCache) served() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.counts.Hits++
	c.mu.Unlock()
}

// GetKey looks a canonical flight key up — the cluster tier's view of
// the cache (Node.Route serves replicated entries through it). A found
// entry counts as a hit immediately: the routing layer serves what it
// finds.
func (c *RespCache) GetKey(key string) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	e := c.byKey[key]
	if e == nil {
		c.mu.Unlock()
		return nil, false
	}
	c.moveToFrontLocked(e)
	c.counts.Hits++
	body := e.body
	c.mu.Unlock()
	return body, true
}

// PutReplica stores a replica-pushed body under its flight key only —
// never in the typed fast-path indexes, so a replica's hit always flows
// through the cluster routing layer (where it is gated on current ring
// entitlement and counted as a replica hit). Reports whether the entry
// was stored. The body must not be mutated after the call.
func (c *RespCache) PutReplica(key string, body []byte) bool {
	if c == nil || key == "" || len(body) == 0 {
		return false
	}
	return c.put(&respEntry{key: key, body: body, kind: entryKeyOnly})
}

// putSolve stores a locally computed solve response in both indexes.
func (c *RespCache) putSolve(p solveParams, key string, body []byte) {
	if c == nil {
		return
	}
	c.put(&respEntry{key: key, body: body, kind: entrySolve, solve: p})
}

// putSim stores a locally computed simulate response in both indexes.
func (c *RespCache) putSim(p simParams, key string, body []byte) {
	if c == nil {
		return
	}
	c.put(&respEntry{key: key, body: body, kind: entrySim, sim: p})
}

// respCacheHighWaterStart is the first byte high-water mark the cache
// journals; each crossing doubles the next one.
const respCacheHighWaterStart = 1 << 20

// setHighWaterHook installs the high-water callback. Call before the
// cache serves traffic (service.New does).
func (c *RespCache) setHighWaterHook(start int64, fn func(bytes int64)) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.nextHighWater = start
	c.onHighWater = fn
	c.mu.Unlock()
}

func (c *RespCache) put(e *respEntry) bool {
	if c.maxBytes > 0 && int64(len(e.body)) > c.maxBytes {
		// A single body larger than the whole byte budget would evict
		// everything and still not fit; refuse it instead.
		return false
	}
	c.mu.Lock()
	if old := c.byKey[e.key]; old != nil {
		// Refresh: the body is identical by the determinism contract, but
		// a local compute upgrades a replica-pushed entry into the typed
		// fast-path index.
		c.moveToFrontLocked(old)
		if old.kind == entryKeyOnly && e.kind != entryKeyOnly {
			old.kind = e.kind
			switch e.kind {
			case entrySolve:
				old.solve = e.solve
				c.bySolve[e.solve] = old
			case entrySim:
				old.sim = e.sim
				c.bySim[e.sim] = old
			}
		}
		c.mu.Unlock()
		return true
	}
	c.byKey[e.key] = e
	switch e.kind {
	case entrySolve:
		c.bySolve[e.solve] = e
	case entrySim:
		c.bySim[e.sim] = e
	}
	c.pushFrontLocked(e)
	c.curBytes += int64(len(e.body))
	c.counts.Stores++
	for (c.maxEntries > 0 && len(c.byKey) > c.maxEntries) ||
		(c.maxBytes > 0 && c.curBytes > c.maxBytes) {
		c.evictLocked()
	}
	var crossed int64
	if c.onHighWater != nil && c.nextHighWater > 0 && c.curBytes >= c.nextHighWater {
		crossed = c.curBytes
		for c.nextHighWater <= c.curBytes {
			c.nextHighWater *= 2
		}
	}
	hook := c.onHighWater
	c.mu.Unlock()
	if crossed > 0 {
		hook(crossed)
	}
	return true
}

// evictLocked drops the least recently used entry.
func (c *RespCache) evictLocked() {
	e := c.tail
	if e == nil {
		return
	}
	c.unlinkLocked(e)
	delete(c.byKey, e.key)
	switch e.kind {
	case entrySolve:
		delete(c.bySolve, e.solve)
	case entrySim:
		delete(c.bySim, e.sim)
	}
	c.curBytes -= int64(len(e.body))
	c.counts.Evictions++
}

func (c *RespCache) pushFrontLocked(e *respEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *RespCache) unlinkLocked(e *respEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *RespCache) moveToFrontLocked(e *respEntry) {
	if c.head == e {
		return
	}
	c.unlinkLocked(e)
	c.pushFrontLocked(e)
}

// Len reports the number of cached entries (0 on nil).
func (c *RespCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.byKey)
}

// Stats reports the cache counters (zeros on nil).
func (c *RespCache) Stats() RespCacheStats {
	if c == nil {
		return RespCacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.counts
	st.Entries, st.Bytes = int64(len(c.byKey)), c.curBytes
	return st
}
