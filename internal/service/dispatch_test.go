package service

import (
	"net/http"
	"net/http/httptest"
	"net/textproto"
	"strings"
	"testing"
)

// Handler dispatches a POST route's exact path ahead of the mux; every
// request must get what the mux alone answers: status, Allow, Location,
// Content-Type and body, on two fresh servers fed the same sequence.
func TestDispatchMatchesMux(t *testing.T) {
	const simBody = `{"arch":2,"conversations":1,"server_compute_us":1140,"seconds":1}`
	bodyFor := func(target string) string {
		switch {
		case strings.Contains(target, "simulate"):
			return simBody
		case strings.Contains(target, "sweep"):
			return sweepBody
		}
		return solveBody
	}
	targets := []string{"/v1/solve", "/v1/solve/", "//v1/solve", "/v1/./solve", "/v1/%73olve",
		"/v1%2Fsolve", "/v1/solve?x=1", "/V1/solve", "/v1/simulate", "/v1/sweep", "/v1/solvex"}
	methods := []string{http.MethodPost, http.MethodGet, http.MethodHead, http.MethodPut}

	dispatched, muxed := New(Config{}), New(Config{})
	seen := map[int]bool{}
	for _, method := range methods {
		for _, target := range targets {
			serve := func(h http.Handler) *httptest.ResponseRecorder {
				req := httptest.NewRequest(method, target, strings.NewReader(bodyFor(target)))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				return rec
			}
			got, want := serve(dispatched.Handler()), serve(muxed.mux)
			for _, k := range []string{"Allow", "Location", "Content-Type"} {
				if got.Header().Get(k) != want.Header().Get(k) {
					t.Errorf("%s %s: %s %q, mux %q", method, target, k, got.Header().Get(k), want.Header().Get(k))
				}
			}
			if got.Code != want.Code || got.Body.String() != want.Body.String() {
				t.Errorf("%s %s: %d %q, mux %d %q", method, target, got.Code, got.Body, want.Code, want.Body)
			}
			seen[want.Code] = true
		}
	}
	for _, code := range []int{http.StatusOK, http.StatusMovedPermanently, http.StatusNotFound, http.StatusMethodNotAllowed} {
		if !seen[code] {
			t.Errorf("no request in the table answered %d", code)
		}
	}
}

// A local cache hit allocates nothing: the request decodes in its
// handler's frame, the dispatch and header reads build nothing, and the
// response's Content-Type is shared.
func TestLocalHitAllocatesNothing(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	req, rb, payload := benchSolveRequest()
	w := &discardRW{h: make(http.Header, 4)}
	allocs := testing.AllocsPerRun(200, func() {
		rb.Reset(payload)
		w.status = 0
		h.ServeHTTP(w, req)
	})
	if w.status != http.StatusOK || s.respCache.Stats().Hits == 0 {
		t.Fatalf("status %d, resp_cache %+v, want 200 hits", w.status, s.respCache.Stats())
	}
	if allocs != 0 {
		t.Fatalf("a local hit allocates %v per request, want 0", allocs)
	}
}

// headerValue indexes the header map directly, which finds only
// canonical keys: every header name the service reads or writes must be
// its own canonical form.
func TestHeaderNamesCanonical(t *testing.T) {
	for _, k := range []string{HopsHeader, RequestIDHeader, TraceHeader, TraceNodeHeader, TraceSpansHeader} {
		if c := textproto.CanonicalMIMEHeaderKey(k); c != k {
			t.Errorf("header name %q is not canonical (%q)", k, c)
		}
	}
}
