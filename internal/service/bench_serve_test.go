package service

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/obs"
)

// The serving-tier benchmarks, pinned in BENCH_gtpn.json alongside the
// solver's so ipcbench -compare gates both tiers. The harness avoids
// httptest.ResponseRecorder (a fresh body buffer per use) and fresh
// requests per iteration — what's measured is the serving path itself.

// replayBody is a resettable request body: one http.Request replays
// across iterations without per-iteration allocation.
type replayBody struct{ bytes.Reader }

func (b *replayBody) Close() error { return nil }

// discardRW is a minimal ResponseWriter with one reusable header map;
// bodies are counted, not kept.
type discardRW struct {
	h      http.Header
	status int
	n      int
}

func (w *discardRW) Header() http.Header         { return w.h }
func (w *discardRW) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }
func (w *discardRW) WriteHeader(code int)        { w.status = code }

func benchSolveRequest() (*http.Request, *replayBody, []byte) {
	payload := []byte(solveBody)
	rb := &replayBody{}
	rb.Reset(payload)
	req := httptest.NewRequest(http.MethodPost, "/v1/solve", rb)
	return req, rb, payload
}

// BenchmarkServeSolveHit is the zero-allocation fast path: an identical
// request answered from the preencoded-response cache.
func BenchmarkServeSolveHit(b *testing.B) {
	s := New(Config{})
	h := s.Handler()
	req, rb, payload := benchSolveRequest()
	w := &discardRW{h: make(http.Header, 4)}

	rb.Reset(payload)
	h.ServeHTTP(w, req)
	if w.status != http.StatusOK {
		b.Fatalf("warmup status %d", w.status)
	}
	if s.respCache.Stats().Stores != 1 {
		b.Fatal("warmup did not populate the response cache")
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rb.Reset(payload)
		w.status = 0
		h.ServeHTTP(w, req)
	}
	b.StopTimer()
	if w.status != http.StatusOK {
		b.Fatalf("status %d", w.status)
	}
	if hits := s.respCache.Stats().Hits; hits < int64(b.N) {
		b.Fatalf("only %d cache hits for %d iterations", hits, b.N)
	}
}

// BenchmarkServeSolveHitObserved is the same hit with ipcd's recorders
// on, as the daemon runs: a text access log (to io.Discard), the
// default SLO and an event journal. The gap to BenchmarkServeSolveHit
// is what observing a hit costs.
func BenchmarkServeSolveHitObserved(b *testing.B) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	s := New(Config{AccessLog: logger, Journal: obs.NewJournal(0, logger, "bench")})
	h := s.Handler()
	req, rb, payload := benchSolveRequest()
	w := &discardRW{h: make(http.Header, 4)}

	rb.Reset(payload)
	h.ServeHTTP(w, req)
	if w.status != http.StatusOK || s.respCache.Stats().Stores != 1 {
		b.Fatalf("warmup status %d did not populate the response cache", w.status)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rb.Reset(payload)
		w.status = 0
		h.ServeHTTP(w, req)
	}
	b.StopTimer()
	if hits := s.respCache.Stats().Hits; w.status != http.StatusOK || hits < int64(b.N) {
		b.Fatalf("status %d, only %d cache hits for %d iterations", w.status, hits, b.N)
	}
}

// replicaRouter is a non-owner's cluster tier for every key: it never
// grants cache entitlement, and answers each routed key from the
// response cache as a replica hit, the way Node.Route does.
type replicaRouter struct{ cache *RespCache }

func (r *replicaRouter) Route(_ context.Context, spec ComputeSpec) (RoutedResult, bool) {
	body, ok := r.cache.GetKey(spec.Key)
	return RoutedResult{Status: http.StatusOK, Body: body, Decision: DecisionReplicaHit}, ok
}
func (*replicaRouter) Offer(ComputeSpec, []byte)                     {}
func (*replicaRouter) CacheServeable(string) bool                    { return false }
func (*replicaRouter) MetricsSnapshot() map[string]any               { return nil }
func (*replicaRouter) Epoch() int64                                  { return 0 }
func (*replicaRouter) HealthSnapshot() []map[string]any              { return nil }
func (*replicaRouter) FanOut(context.Context, string, []byte) Fanout { return Fanout{} }

// BenchmarkServeSolveRouted is the non-owner's path: the fast path
// misses, the request derives its flight key and canonical body, and
// the cluster tier answers it from a replica entry — no solve.
func BenchmarkServeSolveRouted(b *testing.B) {
	rr := &replicaRouter{}
	s := New(Config{Cluster: rr})
	rr.cache = s.RespCache()
	key, err := SolveKey(2, 1, 1, 1140, false)
	if err != nil {
		b.Fatal(err)
	}
	if !rr.cache.PutReplica(key, []byte("{\"replica\":true}\n")) {
		b.Fatal("replica push refused")
	}
	h := s.Handler()
	req, rb, payload := benchSolveRequest()
	w := &discardRW{h: make(http.Header, 4)}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rb.Reset(payload)
		w.status = 0
		h.ServeHTTP(w, req)
	}
	b.StopTimer()
	s.metrics.mu.Lock()
	served, leaders := s.metrics.c[fClusterServed], s.metrics.c[fLeaders]
	s.metrics.mu.Unlock()
	if w.status != http.StatusOK || served < int64(b.N) || leaders != 0 {
		b.Fatalf("status %d, %d cluster-served and %d computed for %d iterations", w.status, served, leaders, b.N)
	}
}

// BenchmarkServeSolveMiss walks the full serving path — pooled decode,
// flight group, admission, the (GTPN-cached) solve, deterministic
// re-encode. The gap to the Hit benchmark is what the response cache
// buys.
func BenchmarkServeSolveMiss(b *testing.B) {
	s := New(Config{RespCacheEntries: -1})
	h := s.Handler()
	req, rb, payload := benchSolveRequest()
	w := &discardRW{h: make(http.Header, 4)}

	rb.Reset(payload)
	h.ServeHTTP(w, req) // warm the process-global GTPN solve cache
	if w.status != http.StatusOK {
		b.Fatalf("warmup status %d", w.status)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rb.Reset(payload)
		w.status = 0
		h.ServeHTTP(w, req)
	}
	b.StopTimer()
	if w.status != http.StatusOK {
		b.Fatalf("status %d", w.status)
	}
}

// BenchmarkDecodeSolveRequest isolates the pooled request decode.
func BenchmarkDecodeSolveRequest(b *testing.B) {
	s := New(Config{})
	req, rb, payload := benchSolveRequest()
	w := &discardRW{h: make(http.Header, 4)}

	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rb.Reset(payload)
		var q solveRequest
		if !s.decodeBody(w, req, &q) {
			b.Fatal("decode failed")
		}
	}
}
