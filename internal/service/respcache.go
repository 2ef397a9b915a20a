package service

import "sync"

// The preencoded-response cache. Every response body is deterministic
// JSON — identical requests yield byte-identical bodies — so a body,
// once encoded, is a pure function of its flight key and never needs
// invalidation. That property turns the serving hot path into a hash
// lookup plus one Write: no decode of the solver's answer, no tree
// build, no re-encode, no per-request buffers.
//
// One index, byKey, serves both ways a hit arrives. The flight key is
// the validated request parameters, so the local fast path builds it in
// a stack buffer and looks it up without allocating; the cluster tier
// looks up the same key for replica hits. Each entry records whether
// this node computed it (local) or holds a peer's bytes for it — a
// replica push, or the owner's answer to an earlier forward. The fast
// path serves a local entry outright and peer bytes only where the
// cluster tier's owner check allows (never at the key's owner, never on
// a single node), counted there as a replica hit; traced requests,
// which skip the fast path, reach the same bytes through Node.Route.
// Peer bytes are only a claim: a local compute for the same key
// replaces them.
//
// The counters are plain integers updated under the cache mutex, so
// counting on the hit path never allocates.

// respEntry is one cached response. The LRU list is intrusive — prev
// and next live in the entry — so recency updates never allocate.
type respEntry struct {
	prev, next *respEntry
	key        string // flight key
	body       []byte // preencoded response; immutable once stored
	local      bool   // computed by this node; false for peer bytes
}

// RespCacheStats is a point-in-time snapshot of the cache counters. A
// fast-path lookup counts once: a hit when it answers, local bytes or
// held peer bytes, and a miss when the request goes on to the flight
// group. The routing layer's GetKey counts a hit of its own.
type RespCacheStats struct {
	Hits        int64 // responses served from cached bytes
	Misses      int64 // fast-path lookups that did not answer
	Evictions   int64 // entries dropped for capacity
	Stores      int64 // entries stored (local computes + peer bytes)
	Entries     int64 // current entry count
	Bytes       int64 // current sum of body bytes
	TraceBypass int64 // traced requests that skipped the fast path
}

// RespCache is the LRU-bounded preencoded-response cache.
type RespCache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64 // 0 means unbounded
	curBytes   int64
	head, tail *respEntry // head = most recently used
	byKey      map[string]*respEntry

	counts RespCacheStats // the counters; Stats fills Entries and Bytes

	// onHighWater, when set, fires (outside the mutex) each time
	// curBytes crosses nextHighWater; the mark then doubles, so a
	// steadily growing cache journals a bounded number of events.
	onHighWater   func(bytes int64)
	nextHighWater int64
}

// A Server's cache holds at most respCacheEntries entries and
// respCacheMaxBytes bytes of bodies.
const (
	respCacheEntries  = 1024
	respCacheMaxBytes = 64 << 20
)

func newRespCache(maxEntries int, maxBytes int64) *RespCache {
	return &RespCache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		byKey:      map[string]*respEntry{},
	}
}

// get looks a flight key up on the fast path. A locally computed entry
// counts a hit and a missing one a miss; held peer bytes (local false)
// count neither, because only the cluster tier knows whether this node
// may serve them, and the caller settles the count with countHeld. The
// key arrives as bytes so the caller can build it on its stack: the map
// lookup converts it without allocating, and the returned key is the
// entry's own string.
func (c *RespCache) get(key []byte) (ckey string, body []byte, local, ok bool) {
	c.mu.Lock()
	e := c.byKey[string(key)]
	if e == nil {
		c.counts.Misses++
		c.mu.Unlock()
		return "", nil, false, false
	}
	c.moveToFrontLocked(e)
	if e.local {
		c.counts.Hits++
	}
	ckey, body, local = e.key, e.body, e.local
	c.mu.Unlock()
	return ckey, body, local, true
}

// countHeld counts a fast-path lookup that found held peer bytes: a hit
// when the request was served from them, a miss when it goes on to
// compute.
func (c *RespCache) countHeld(served bool) {
	c.mu.Lock()
	if served {
		c.counts.Hits++
	} else {
		c.counts.Misses++
	}
	c.mu.Unlock()
}

// TraceBypass counts one traced request that skipped the fast path: a
// sampled trace exists to show the full pipeline, so traced requests
// never consult the cache, and without this counter that skew
// would be invisible in the hit/miss ratio.
func (c *RespCache) TraceBypass() {
	c.mu.Lock()
	c.counts.TraceBypass++
	c.mu.Unlock()
}

// GetKey looks a flight key up — the cluster tier's view of the cache
// (Node.Route serves held peer bytes through it to traced requests). A
// found entry counts as a hit immediately: the routing layer serves
// what it finds.
func (c *RespCache) GetKey(key string) ([]byte, bool) {
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

// PutReplica stores peer bytes — a replica push, or the owner's answer
// to a forward — under their flight key. They are served only at a
// non-owner of the key, counted as a replica hit. Peer bytes never
// replace an entry already held. Reports whether the key is cached
// after the call. The body must not be mutated after the call.
func (c *RespCache) PutReplica(key string, body []byte) bool {
	if key == "" || len(body) == 0 {
		return false
	}
	return c.put(key, body, false)
}

// putLocal stores a locally computed response under its flight key.
func (c *RespCache) putLocal(key string, body []byte) {
	c.put(key, body, true)
}

// respCacheHighWaterStart is the first byte high-water mark the cache
// journals; each crossing doubles the next one.
const respCacheHighWaterStart = 1 << 20

// setHighWaterHook installs the high-water callback. Call before the
// cache serves traffic (service.New does).
func (c *RespCache) setHighWaterHook(start int64, fn func(bytes int64)) {
	c.mu.Lock()
	c.nextHighWater = start
	c.onHighWater = fn
	c.mu.Unlock()
}

func (c *RespCache) put(key string, body []byte, local bool) bool {
	if c.maxBytes > 0 && int64(len(body)) > c.maxBytes {
		// A single body larger than the whole byte budget would evict
		// everything and still not fit; refuse it instead.
		return false
	}
	c.mu.Lock()
	if e := c.byKey[key]; e != nil {
		c.moveToFrontLocked(e)
		if !local || e.local {
			// Peer bytes never displace a held body, and a repeat local
			// compute has the same bytes by the determinism contract.
			c.mu.Unlock()
			return true
		}
		// A local compute replaces peer bytes rather than trusting
		// them: the push endpoint accepts any bytes, and from now on
		// the fast path serves this entry even at the key's owner.
		c.curBytes += int64(len(body) - len(e.body))
		e.body, e.local = body, true
	} else {
		e = &respEntry{key: key, body: body, local: local}
		c.byKey[key] = e
		c.pushFrontLocked(e)
		c.curBytes += int64(len(body))
		c.counts.Stores++
	}
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

// Stats reports the cache counters.
func (c *RespCache) Stats() RespCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.counts
	st.Entries, st.Bytes = int64(len(c.byKey)), c.curBytes
	return st
}
