package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"
)

// A cached response must be the exact bytes a fresh server would
// encode: the cache stores what the encoder produced, so a hit is
// byte-identical to a cold compute, across solve and simulate.
func TestRespCacheByteIdentity(t *testing.T) {
	warmSrv, warm := testServer(t, Config{})
	coldSrv, cold := testServer(t, Config{})

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
	// The warm server answered each repeat from the cache; the fresh one
	// computed each point once.
	if st := warmSrv.respCache.Stats(); st.Hits != 2 || st.Stores != 2 {
		t.Fatalf("warm resp_cache = %+v, want 2 hits / 2 stores", st)
	}
	if st := coldSrv.respCache.Stats(); st.Hits != 0 || st.Stores != 2 {
		t.Fatalf("fresh resp_cache = %+v, want 0 hits / 2 stores", st)
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

// Eviction is strict LRU over both lookups and stores.
func TestRespCacheLRUEvictionOrder(t *testing.T) {
	c := newRespCache(2, 0)
	c.putLocal("a", []byte("A"))
	c.putLocal("b", []byte("B"))
	c.get([]byte("a")) // touch A: B becomes the LRU entry
	c.putLocal("c", []byte("C"))

	if _, _, _, ok := c.get([]byte("b")); ok {
		t.Fatal("b survived eviction; LRU order broken")
	}
	if _, _, _, ok := c.get([]byte("a")); !ok {
		t.Fatal("a was evicted despite being recently used")
	}
	if _, _, _, ok := c.get([]byte("c")); !ok {
		t.Fatal("c missing right after store")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction / 2 entries", st)
	}
}

// Memory stays bounded under churn: both the entry bound and the byte
// bound hold at every step of a long insert stream.
func TestRespCacheBoundedUnderChurn(t *testing.T) {
	c := newRespCache(8, 1<<12)
	body := bytes.Repeat([]byte("x"), 100)
	for i := 0; i < 1000; i++ {
		c.putLocal(fmt.Sprintf("k%d", i), body)
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
	c.putLocal("a", big)
	c.putLocal("b", big) // 400 bytes total: a must go
	if _, _, _, ok := c.get([]byte("a")); ok {
		t.Fatal("a survived a byte-bound eviction")
	}
	if st := c.Stats(); st.Bytes > 256 {
		t.Fatalf("bytes = %d over the 256 bound", st.Bytes)
	}
	if c.PutReplica("huge", bytes.Repeat([]byte("z"), 300)) {
		t.Fatal("an oversized body must be refused, not stored")
	}
	if _, _, _, ok := c.get([]byte("b")); !ok {
		t.Fatal("refusing the oversized body must not evict anything")
	}
}

// Error responses are never cached: a 504 (timeout) and a 400 leave
// the cache empty, so a transient failure cannot be replayed forever.
func TestRespCacheNoErrorCaching(t *testing.T) {
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

// The fast path tells held peer bytes from a local compute: get finds a
// push but reports it as not local, and leaves the hit-or-miss count to
// countHeld (only the cluster tier's owner check knows which it is). A
// local compute for the same key still replaces the push in place.
func TestRespCacheReplicaKeyOnly(t *testing.T) {
	c := newRespCache(8, 0)
	if !c.PutReplica("some-flight-key", []byte("pushed")) {
		t.Fatal("push refused")
	}
	key, body, local, ok := c.get([]byte("some-flight-key"))
	if !ok || local || key != "some-flight-key" || string(body) != "pushed" {
		t.Fatalf("fast-path lookup of a push = %q %q local=%v ok=%v, want the pushed bytes, not local", key, body, local, ok)
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want no count before the held lookup is settled", st)
	}
	c.countHeld(true)
	c.countHeld(false)
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want a served held lookup as a hit and a refused one as a miss", st)
	}
	// A local compute for the same key takes the entry over in place,
	// with its own bytes: a push is only a peer's claim.
	c.putLocal("some-flight-key", []byte("computed"))
	if key, body, local, ok := c.get([]byte("some-flight-key")); !ok || !local || key != "some-flight-key" || string(body) != "computed" {
		t.Fatalf("local compute did not replace the push: %q %q local=%v ok=%v", key, body, local, ok)
	}
	if st := c.Stats(); st.Entries != 1 || st.Bytes != int64(len("computed")) || st.Stores != 1 {
		t.Fatalf("replacement miscounted: %+v", st)
	}
	// A later push never displaces the computed body.
	c.PutReplica("some-flight-key", []byte("bogus"))
	if _, body, _, ok := c.get([]byte("some-flight-key")); !ok || string(body) != "computed" {
		t.Fatalf("push displaced a computed body: %q %v", body, ok)
	}
}

// Replacing a pushed body with a larger computed one holds the byte
// bound: the growth evicts older entries, never the replaced one.
func TestRespCacheReplaceHoldsByteBound(t *testing.T) {
	c := newRespCache(8, 100)
	c.putLocal("old", bytes.Repeat([]byte("o"), 50))
	c.PutReplica("k", []byte("tiny"))
	c.putLocal("k", bytes.Repeat([]byte("c"), 80))
	st := c.Stats()
	if st.Bytes != 80 || st.Entries != 1 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 80 bytes / 1 entry / 1 eviction", st)
	}
	if _, _, local, ok := c.get([]byte("k")); !ok || !local {
		t.Fatal("the replaced entry was evicted")
	}
}

// Pushes, local computes and lookups racing on the same keys: the
// race detector is one assertion; the other is that once every compute
// has landed, each key serves its computed body and the byte gauge
// matches the entries.
func TestRespCacheConcurrentPushAndCompute(t *testing.T) {
	c := newRespCache(64, 0)
	keys := make([]string, 8)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	computed := func(k string) []byte { return []byte("computed " + k) }
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := keys[(g+i)%len(keys)]
				switch g % 3 {
				case 0:
					c.PutReplica(k, []byte("pushed"))
				case 1:
					c.putLocal(k, computed(k))
				default:
					c.get([]byte(k))
				}
			}
		}(g)
	}
	wg.Wait()
	var want int64
	for _, k := range keys {
		c.putLocal(k, computed(k))
		if _, body, local, ok := c.get([]byte(k)); !ok || !local || !bytes.Equal(body, computed(k)) {
			t.Fatalf("%s serves %q after its compute", k, body)
		}
		want += int64(len(computed(k)))
	}
	if st := c.Stats(); st.Entries != int64(len(keys)) || st.Bytes != want {
		t.Fatalf("stats = %+v, want %d entries of %d bytes", st, len(keys), want)
	}
}

// In cluster mode the serving layer stores every fresh local compute —
// a body is a pure function of its key, so there is nothing to gate —
// and never stores a body the router served: the cluster tier keeps
// that one as peer bytes.
func TestRespCacheClusterStoreRule(t *testing.T) {
	fr := &fakeRouter{} // declines every key until route is set
	s, ts := testServer(t, Config{Cluster: fr})

	leaders := func() int64 {
		s.metrics.mu.Lock()
		defer s.metrics.mu.Unlock()
		return s.metrics.c[fLeaders]
	}

	// Declined: the compute is stored, and the repeat is a fast-path
	// hit that never reaches the router.
	post(t, ts.URL+"/v1/solve", solveBody)
	post(t, ts.URL+"/v1/solve", solveBody)
	if n := leaders(); n != 1 {
		t.Fatalf("leaders = %d, want 1 (the repeat must hit the cache)", n)
	}
	if st := s.respCache.Stats(); st.Stores != 1 || st.Hits != 1 {
		t.Fatalf("resp_cache = %+v, want 1 store and 1 hit", st)
	}
	if n := len(fr.routedSpecs()); n != 1 {
		t.Fatalf("router asked %d times, want once (the repeat is a fast-path hit)", n)
	}

	// Served by the router: the body is written verbatim and not stored,
	// so every repeat asks the router again.
	canned := []byte(`{"served":"by-peer"}`)
	fr.mu.Lock()
	fr.route = func(ComputeSpec) (RoutedResult, bool) {
		return RoutedResult{Status: http.StatusOK, Body: canned}, true
	}
	fr.mu.Unlock()
	for i := 0; i < 2; i++ {
		code, _, body := post(t, ts.URL+"/v1/solve", `{"arch":3,"conversations":1,"server_compute_us":570}`)
		if code != http.StatusOK || !bytes.Equal(body, canned) {
			t.Fatalf("routed solve %d: %d %q, want the router's bytes", i, code, body)
		}
	}
	if st := s.respCache.Stats(); st.Stores != 1 || st.Entries != 1 {
		t.Fatalf("resp_cache = %+v, want only the local compute stored", st)
	}
	if n := len(fr.routedSpecs()); n != 3 {
		t.Fatalf("router asked %d times, want 3 (each routed request)", n)
	}
}

// The hit path — building the flight key, the lookup and the counter
// updates — is allocation-free, the same pinned contract the hardware
// counters carry, for a local entry and for held peer bytes alike.
func TestRespCacheHitPathDoesNotAllocate(t *testing.T) {
	c := newRespCache(8, 0)
	q := solveRequest{Arch: 2, Conversations: 1, ServerComputeUS: 1140}
	if err := q.validate(); err != nil {
		t.Fatal(err)
	}
	key, err := SolveKey(2, 1, 1, 1140, false)
	if err != nil {
		t.Fatal(err)
	}
	held := q
	held.Arch = 3
	heldKey, err := SolveKey(3, 1, 1, 1140, false)
	if err != nil {
		t.Fatal(err)
	}
	c.putLocal(key, []byte("body"))
	c.PutReplica(heldKey, []byte("peer body"))
	if n := testing.AllocsPerRun(1000, func() {
		var kb [keyBufLen]byte
		if _, _, local, ok := c.get(q.appendKey(kb[:0])); !ok || !local {
			t.Fatal("entry vanished")
		}
		if _, _, local, ok := c.get(held.appendKey(kb[:0])); !ok || local {
			t.Fatal("held entry vanished")
		}
		c.countHeld(true)
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
