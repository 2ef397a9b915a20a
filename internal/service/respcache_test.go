package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gtpn"
)

func testSolveParams() solveParams {
	return solveParams{arch: 2, conversations: 1, hosts: 1, serverComputeUS: 1140}
}

// A cached response must be the exact bytes a fresh server would
// encode: the cache stores what the encoder produced, so a hit is
// byte-identical to a cold compute, across solve and simulate.
func TestRespCacheByteIdentity(t *testing.T) {
	_, warm := testServer(t, Config{})
	_, cold := testServer(t, Config{RespCacheEntries: -1})

	simBody := `{"arch":3,"conversations":2,"server_compute_us":1140,"seconds":2,"seed":7}`
	for _, tc := range []struct{ path, body string }{
		{"/v1/solve", solveBody},
		{"/v1/simulate", simBody},
	} {
		code, _, first := post(t, warm.URL+tc.path, tc.body)
		if code != 200 {
			t.Fatalf("%s: %d %s", tc.path, code, first)
		}
		code, _, hit := post(t, warm.URL+tc.path, tc.body)
		if code != 200 || !bytes.Equal(hit, first) {
			t.Fatalf("%s cached response diverged:\n  %s\n  %s", tc.path, first, hit)
		}
		code, _, fresh := post(t, cold.URL+tc.path, tc.body)
		if code != 200 || !bytes.Equal(hit, fresh) {
			t.Fatalf("%s cached vs freshly encoded:\n  %s\n  %s", tc.path, hit, fresh)
		}
	}
}

// The second identical request must be answered from the cache — one
// leader, one store, one hit — visible in /metrics and Prometheus.
func TestRespCacheHitCounters(t *testing.T) {
	s, ts := testServer(t, Config{})
	post(t, ts.URL+"/v1/solve", solveBody)
	post(t, ts.URL+"/v1/solve", solveBody)

	st := s.respCache.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Stores != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 store / 1 entry", st)
	}
	if st.Bytes <= 0 {
		t.Fatalf("bytes gauge = %d, want > 0", st.Bytes)
	}

	var doc struct {
		RespCache struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
			Stores int64 `json:"stores"`
		} `json:"resp_cache"`
		Serving struct {
			Leaders int64 `json:"leaders"`
		} `json:"serving"`
	}
	_, body := get(t, ts.URL+"/metrics")
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RespCache.Hits != 1 || doc.RespCache.Misses != 1 || doc.RespCache.Stores != 1 {
		t.Fatalf("metrics resp_cache = %+v", doc.RespCache)
	}
	if doc.Serving.Leaders != 1 {
		t.Fatalf("leaders = %d, want 1 (the hit must not compute)", doc.Serving.Leaders)
	}

	var prom bytes.Buffer
	if err := s.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"ipcd_resp_cache_hits_total 1",
		"ipcd_resp_cache_misses_total 1",
		"ipcd_resp_cache_stores_total 1",
		"ipcd_resp_cache_entries 1",
	} {
		if !bytes.Contains(prom.Bytes(), []byte(want+"\n")) {
			t.Fatalf("prometheus exposition missing %q:\n%s", want, prom.String())
		}
	}
}

// With the cache disabled, every identical request leads its own
// flight again.
func TestRespCacheDisabled(t *testing.T) {
	s, ts := testServer(t, Config{RespCacheEntries: -1})
	if s.RespCache() != nil {
		t.Fatal("RespCacheEntries: -1 must disable the cache")
	}
	post(t, ts.URL+"/v1/solve", solveBody)
	post(t, ts.URL+"/v1/solve", solveBody)
	s.metrics.mu.Lock()
	leaders := s.metrics.c[fLeaders]
	s.metrics.mu.Unlock()
	if leaders != 2 {
		t.Fatalf("leaders = %d, want 2 with caching off", leaders)
	}
}

// Eviction is strict LRU over both lookups and stores.
func TestRespCacheLRUEvictionOrder(t *testing.T) {
	c := newRespCache(2, 0)
	pa := solveParams{arch: 1}
	pb := solveParams{arch: 2}
	pc := solveParams{arch: 3}
	c.putSolve(pa, "a", []byte("A"))
	c.putSolve(pb, "b", []byte("B"))
	c.getSolve(pa) // touch A: B becomes the LRU entry
	c.putSolve(pc, "c", []byte("C"))

	if _, _, ok := c.getSolve(pb); ok {
		t.Fatal("b survived eviction; LRU order broken")
	}
	if _, _, ok := c.getSolve(pa); !ok {
		t.Fatal("a was evicted despite being recently used")
	}
	if _, _, ok := c.getSolve(pc); !ok {
		t.Fatal("c missing right after store")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction / 2 entries", st)
	}
	// The evicted entry must be gone from every index.
	if _, ok := c.GetKey("b"); ok {
		t.Fatal("b still reachable by key after eviction")
	}
}

// Memory stays bounded under churn: both the entry bound and the byte
// bound hold at every step of a long insert stream.
func TestRespCacheBoundedUnderChurn(t *testing.T) {
	c := newRespCache(8, 1<<12)
	body := bytes.Repeat([]byte("x"), 100)
	for i := 0; i < 1000; i++ {
		c.putSolve(solveParams{arch: i}, fmt.Sprintf("k%d", i), body)
		st := c.Stats()
		if st.Entries > 8 || st.Bytes > 1<<12 {
			t.Fatalf("bounds violated at insert %d: %+v", i, st)
		}
	}
	st := c.Stats()
	if st.Stores != 1000 || st.Evictions != 992 {
		t.Fatalf("stats = %+v, want 1000 stores / 992 evictions", st)
	}
}

// The byte bound evicts by size, and a single body larger than the
// whole budget is refused rather than flushing the cache for nothing.
func TestRespCacheByteBound(t *testing.T) {
	c := newRespCache(100, 256)
	big := bytes.Repeat([]byte("y"), 200)
	c.putSolve(solveParams{arch: 1}, "a", big)
	c.putSolve(solveParams{arch: 2}, "b", big) // 400 bytes total: a must go
	if _, ok := c.GetKey("a"); ok {
		t.Fatal("a survived a byte-bound eviction")
	}
	if st := c.Stats(); st.Bytes > 256 {
		t.Fatalf("bytes = %d over the 256 bound", st.Bytes)
	}
	if c.PutReplica("huge", bytes.Repeat([]byte("z"), 300)) {
		t.Fatal("an oversized body must be refused, not stored")
	}
	if _, ok := c.GetKey("b"); !ok {
		t.Fatal("refusing the oversized body must not evict anything")
	}
}

// Error responses are never cached: a 504 (timeout) and a 400 leave
// the cache empty, so a transient failure cannot be replayed forever.
func TestRespCacheNoErrorCaching(t *testing.T) {
	// A fresh GTPN cache, so the expired deadline is seen by a real
	// solve instead of a warm solver-cache entry racing it to 200.
	gtpn.ResetSolveCache()
	t.Cleanup(gtpn.ResetSolveCache)
	s, ts := testServer(t, Config{RequestTimeout: time.Nanosecond})
	if code, _, _ := post(t, ts.URL+"/v1/solve", solveBody); code != 504 {
		t.Fatalf("status = %d, want 504 with a 1ns deadline", code)
	}
	if code, _, _ := post(t, ts.URL+"/v1/solve", `{"arch":99}`); code != 400 {
		t.Fatal("invalid request must be 400")
	}
	if st := s.respCache.Stats(); st.Stores != 0 || st.Entries != 0 {
		t.Fatalf("error responses were cached: %+v", st)
	}
}

// Replica pushes are key-index only: the local typed fast path must not
// serve them (that is the cluster Route's job, where entitlement and
// replica-hit accounting live).
func TestRespCacheReplicaKeyOnly(t *testing.T) {
	c := newRespCache(8, 0)
	if !c.PutReplica("some-flight-key", []byte("pushed")) {
		t.Fatal("push refused")
	}
	if _, ok := c.GetKey("some-flight-key"); !ok {
		t.Fatal("pushed entry must be reachable by key")
	}
	if _, _, ok := c.getSolve(testSolveParams()); ok {
		t.Fatal("a replica push must never appear in the typed index")
	}
	// A local compute for the same key upgrades the entry in place.
	p := testSolveParams()
	c.putSolve(p, "some-flight-key", []byte("pushed"))
	if key, body, ok := c.getSolve(p); !ok || key != "some-flight-key" || string(body) != "pushed" {
		t.Fatalf("upgrade failed: %q %q %v", key, body, ok)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("upgrade duplicated the entry: %+v", st)
	}
}

// The serving layer consults the cluster's entitlement on every hit:
// flipping a key unserveable sends the request back through the full
// path even though the bytes are cached.
func TestRespCacheClusterEntitlementGate(t *testing.T) {
	fr := &fakeRouter{}
	var allowed atomic.Bool
	fr.serveable = func(string) bool { return allowed.Load() }
	s, ts := testServer(t, Config{Cluster: fr})

	leaders := func() int64 {
		s.metrics.mu.Lock()
		defer s.metrics.mu.Unlock()
		return s.metrics.c[fLeaders]
	}

	// Not entitled: the compute happens, and the store is skipped too.
	post(t, ts.URL+"/v1/solve", solveBody)
	if n := leaders(); n != 1 {
		t.Fatalf("leaders = %d, want 1", n)
	}
	if st := s.respCache.Stats(); st.Stores != 0 {
		t.Fatalf("stored a response this node may not serve: %+v", st)
	}

	// Entitled: the next compute stores, and the one after hits.
	allowed.Store(true)
	post(t, ts.URL+"/v1/solve", solveBody)
	if st := s.respCache.Stats(); st.Stores != 1 {
		t.Fatalf("stores = %+v, want 1 once entitled", st)
	}
	post(t, ts.URL+"/v1/solve", solveBody)
	if n := leaders(); n != 2 {
		t.Fatalf("leaders = %d, want 2 (third request must hit the cache)", n)
	}

	// Entitlement lost (the ring moved on): cached bytes stop serving.
	allowed.Store(false)
	post(t, ts.URL+"/v1/solve", solveBody)
	if n := leaders(); n != 3 {
		t.Fatalf("leaders = %d, want 3 (unentitled hit must recompute)", n)
	}
}

// Counter updates on the hit path are allocation-free, the same pinned
// contract the hardware counters carry.
func TestRespCacheHitPathDoesNotAllocate(t *testing.T) {
	c := newRespCache(8, 0)
	p := testSolveParams()
	c.putSolve(p, "k", []byte("body"))
	if n := testing.AllocsPerRun(1000, func() {
		if _, _, ok := c.getSolve(p); !ok {
			t.Fatal("entry vanished")
		}
		c.served()
		if _, ok := c.GetKey("k"); !ok {
			t.Fatal("key vanished")
		}
	}); n != 0 {
		t.Fatalf("cache hit path allocates %v per run, want 0", n)
	}
}

// Concurrent identical and distinct solves against the cache, racing
// with metrics reads — the race detector is the assertion, plus every
// response staying byte-identical per point.
func TestRespCacheRaceHammer(t *testing.T) {
	_, ts := testServer(t, Config{})
	points := []string{
		`{"arch":1,"conversations":1,"server_compute_us":1140}`,
		`{"arch":2,"conversations":1,"server_compute_us":1140}`,
		`{"arch":2,"conversations":2,"server_compute_us":1140}`,
		`{"arch":4,"conversations":1,"server_compute_us":1140}`,
	}
	want := make([][]byte, len(points))
	for i, p := range points {
		code, _, body := post(t, ts.URL+"/v1/solve", p)
		if code != 200 {
			t.Fatalf("prime %d: %d %s", i, code, body)
		}
		want[i] = body
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				pi := (g + i) % len(points)
				code, _, body := post(t, ts.URL+"/v1/solve", points[pi])
				if code != 200 || !bytes.Equal(body, want[pi]) {
					errs <- fmt.Errorf("goroutine %d point %d: %d %s", g, pi, code, body)
					return
				}
				if i%5 == 0 {
					get(t, ts.URL+"/metrics")
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
