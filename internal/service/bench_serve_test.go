package service

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
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

// BenchmarkServeSolveHit is the fast path: an identical request
// answered from the preencoded-response cache. It allocates nothing.
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

// replicaRouter is a non-owner's cluster tier for every key: ServeHeld
// lets the fast path serve held peer bytes. Route answers not-served:
// held bytes are the fast path's alone to serve, so a request that
// reaches Route has found none, and the benchmark's requests never do
// (a Route call would send one to compute, which the benchmark fails).
type replicaRouter struct{}

func (*replicaRouter) ServeHeld(string) bool { return true }
func (*replicaRouter) Route(context.Context, ComputeSpec) (RoutedResult, bool) {
	return RoutedResult{}, false
}
func (*replicaRouter) Offer(ComputeSpec, []byte)                     {}
func (*replicaRouter) MetricsSnapshot() map[string]any               { return nil }
func (*replicaRouter) Epoch() int64                                  { return 0 }
func (*replicaRouter) HealthSnapshot() []map[string]any              { return nil }
func (*replicaRouter) FanOut(context.Context, string, []byte) Fanout { return Fanout{} }

// BenchmarkServeSolveRouted is a non-owner's held-bytes hit: the fast
// path finds peer bytes (a replica push, or the owner's answer kept from
// a forward), the cluster tier's owner check lets this node serve them,
// and the request is answered as a replica hit — no flight, no Route
// call, no solve. It should cost what BenchmarkServeSolveHit does.
func BenchmarkServeSolveRouted(b *testing.B) {
	s := New(Config{Cluster: &replicaRouter{}})
	key, err := SolveKey(2, 1, 1, 1140, false)
	if err != nil {
		b.Fatal(err)
	}
	if !s.RespCache().PutReplica(key, []byte("{\"replica\":true}\n")) {
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

// BenchmarkServeSolveFresh is a fresh point on a server with no
// cluster tier, the serving path's miss: every iteration sends a
// never-seen X through the default server, so the response cache
// misses and the point is solved. The warm-up leaves what a
// long-running server has already done: its System's canonical C, and
// a pooled solver of the point's shape, so an iteration derives its net
// from the last point's and reweights that point's graph (or builds
// cold, when a GC has cleared the pool).
func BenchmarkServeSolveFresh(b *testing.B) {
	s := New(Config{})
	h := s.Handler()
	req, rb, _ := benchSolveRequest()
	w := &discardRW{h: make(http.Header, 4)}
	body := func(x float64) []byte {
		return []byte(`{"arch":2,"conversations":1,"server_compute_us":` + strconv.FormatFloat(x, 'g', -1, 64) + `}`)
	}

	rb.Reset(body(999))
	h.ServeHTTP(w, req)
	if w.status != http.StatusOK {
		b.Fatalf("warmup status %d", w.status)
	}
	bodies := make([][]byte, b.N)
	for i := range bodies {
		bodies[i] = body(1000 + float64(i)/4)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rb.Reset(bodies[i])
		w.status = 0
		h.ServeHTTP(w, req)
	}
	b.StopTimer()
	if w.status != http.StatusOK {
		b.Fatalf("status %d", w.status)
	}
	if hits := s.respCache.Stats().Hits; hits != 0 {
		b.Fatalf("%d response-cache hits on never-seen points", hits)
	}
}

// BenchmarkDecodeSolveRequest isolates the pooled request decode, which
// decodeFlat serves. It allocates nothing: the request stays in the
// loop's frame.
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
