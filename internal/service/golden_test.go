package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/gtpn"
	"repro/internal/obs"
)

// The local observability bodies, pinned byte for byte. One server runs
// a fixed request sequence with every clock it reads from pinned (the
// journal's SetNow, SampleMetrics and TickSLO at fixed times, an
// availability-only SLO), then each observability endpoint is read in a
// fixed order and compared with testdata/golden. Only values that
// depend on wall time or GOMAXPROCS are masked (maskVolatile). Refresh
// with -update.

// latencyObject matches a whole per-route histogram map; parallelSolves
// depends on GOMAXPROCS, requestTimings on wall time.
var (
	latencyObject  = regexp.MustCompile(`"latency_us":\{("[a-z]+":\{[^{}]*\},?)*\}`)
	parallelSolves = regexp.MustCompile(`"(parallel_class_solves)":[0-9][0-9.eE+-]*`)
	requestTimings = regexp.MustCompile(`"(unix_ms|decode_us|wait_us|route_us|compute_us|total_us)":[0-9][0-9.eE+-]*`)
)

// maskVolatile blanks the parts of an observability body that depend
// on wall time or GOMAXPROCS: JSON latency histograms (each whole
// "latency_us" object), the parallel-solve count, request-row timings
// when maskTimes is set (history points and journal events carry pinned
// times and keep them), and the values of the exposition's latency
// histogram lines (exemplars included) and parallel-solve counter.
func maskVolatile(body []byte, maskTimes bool) []byte {
	out := latencyObject.ReplaceAll(body, []byte(`"latency_us":"*"`))
	out = parallelSolves.ReplaceAll(out, []byte(`"$1":"*"`))
	if maskTimes {
		out = requestTimings.ReplaceAll(out, []byte(`"$1":"*"`))
	}
	lines := strings.Split(string(out), "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, "ipcd_request_duration_us_") ||
			strings.HasPrefix(l, "ipcd_gtpn_engine_parallel_class_solves_total ") {
			if j := strings.Index(l, "} "); j >= 0 {
				lines[i] = l[:j+1] + " *"
			} else {
				lines[i] = l[:strings.IndexByte(l, ' ')] + " *"
			}
		}
	}
	return []byte(strings.Join(lines, "\n"))
}

// checkGolden compares got with testdata/golden/name, rewriting the
// file first under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s diverged from golden.\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// serveOne drives one request through the handler in process.
func serveOne(t *testing.T, h http.Handler, method, path, body string, hdr map[string]string) (int, []byte) {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

func TestObservabilityGoldenLocal(t *testing.T) {
	gtpn.ResetSolveCache()
	gtpn.ResetSolverEngineStats()
	journal := obs.NewJournal(8, nil, "g0")
	journal.SetNow(func() time.Time { return time.UnixMilli(7000) })
	s := New(Config{
		Workers:  1,
		NodeName: "g0",
		Journal:  journal,
		SLO:      []obs.Objective{{Route: "solve", TargetPPM: 990_000}},
	})
	h := s.Handler()

	s.SampleMetrics(time.UnixMilli(1000))
	for _, step := range []struct {
		body string
		hdr  map[string]string
		want int
	}{
		{solveBody, nil, http.StatusOK},                                          // miss: computed
		{solveBody, nil, http.StatusOK},                                          // hit: response cache
		{`{"arch":9,"conversations":1}`, nil, http.StatusBadRequest},             // 400
		{solveBody, map[string]string{HopsHeader: "2"}, http.StatusLoopDetected}, // 508
	} {
		if code, body := serveOne(t, h, http.MethodPost, "/v1/solve", step.body, step.hdr); code != step.want {
			t.Fatalf("POST %s: %d %s, want %d", step.body, code, body, step.want)
		}
	}
	s.TickSLO(time.UnixMilli(2000))
	s.SampleMetrics(time.UnixMilli(3000))
	s.BeginDrain()
	if code, body := serveOne(t, h, http.MethodPost, "/v1/solve", solveBody, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("POST during drain: %d %s, want 503", code, body)
	}

	om := map[string]string{"Accept": "application/openmetrics-text;version=1.0.0"}
	for _, read := range []struct {
		path, golden string
		hdr          map[string]string
		maskTimes    bool
	}{
		{"/metrics", "metrics.json", nil, false},
		{"/metrics?format=prometheus", "metrics.prom", nil, false},
		{"/metrics?format=prometheus", "metrics.om", om, false},
		{"/metrics/history", "history.json", nil, false},
		{"/debug/requests", "requests.json", nil, true},
		{"/debug/events", "events.json", nil, false},
		{"/debug/health", "health.json", nil, false},
	} {
		code, body := serveOne(t, h, http.MethodGet, read.path, "", read.hdr)
		if code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", read.path, code, body)
		}
		checkGolden(t, read.golden, maskVolatile(body, read.maskTimes))
	}
}
