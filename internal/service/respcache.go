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
// path serves local entries only, so peer bytes are always served by
// the routing layer, which serves them only at a non-owner and counts a
// replica hit. Peer bytes are only a claim: a local compute for the
// same key replaces them.
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
// fast-path lookup that finds held peer bytes counts a miss, and the
// routing layer's GetKey then counts a hit for the same request.
type RespCacheStats struct {
	Hits        int64 // responses served from cached bytes
	Misses      int64 // fast-path lookups that found no locally computed body
	Evictions   int64 // entries dropped for capacity
	Stores      int64 // entries stored (local computes + peer bytes)
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

	counts RespCacheStats // the counters; Stats fills Entries and Bytes

	// onHighWater, when set, fires (outside the mutex) each time
	// curBytes crosses nextHighWater; the mark then doubles, so a
	// steadily growing cache journals a bounded number of events.
	onHighWater   func(bytes int64)
	nextHighWater int64
}

// respCacheMaxBytes bounds a Server's cache by the sum of its bodies.
const respCacheMaxBytes = 64 << 20

func newRespCache(maxEntries int, maxBytes int64) *RespCache {
	return &RespCache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		byKey:      map[string]*respEntry{},
	}
}

// get looks a flight key up on the fast path and counts the hit or
// miss. Only a locally computed entry answers; peer bytes count as a
// miss here and are served by the routing layer instead. The key
// arrives as bytes so the caller can build it on its stack: the map
// lookup converts it without allocating, and the returned key is the
// entry's own string.
func (c *RespCache) get(key []byte) (ckey string, body []byte, ok bool) {
	if c == nil {
		return "", nil, false
	}
	c.mu.Lock()
	e := c.byKey[string(key)]
	if e == nil || !e.local {
		c.counts.Misses++
		c.mu.Unlock()
		return "", nil, false
	}
	c.moveToFrontLocked(e)
	c.counts.Hits++
	ckey, body = e.key, e.body
	c.mu.Unlock()
	return ckey, body, true
}

// TraceBypass counts one traced request that skipped the fast path: a
// sampled trace exists to show the full pipeline, so traced requests
// never consult the cache, and without this counter that skew
// would be invisible in the hit/miss ratio.
func (c *RespCache) TraceBypass() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.counts.TraceBypass++
	c.mu.Unlock()
}

// GetKey looks a flight key up — the cluster tier's view of the cache
// (Node.Route serves held peer bytes through it). A found entry counts
// as a hit immediately: the routing layer serves what it finds.
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

// PutReplica stores peer bytes — a replica push, or the owner's answer
// to a forward — under their flight key. The local fast path never
// serves them, so they are always served by the cluster routing layer
// (only at a non-owner, counted as a replica hit). Peer bytes never
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
	if c == nil {
		return
	}
	c.mu.Lock()
	c.nextHighWater = start
	c.onHighWater = fn
	c.mu.Unlock()
}

func (c *RespCache) put(key string, body []byte, local bool) bool {
	if c == nil {
		return false
	}
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
		// them: the push endpoint accepts any bytes, and the fast path
		// is about to serve this entry.
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
