package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// metricsDoc decodes the /metrics body far enough to reach the serving
// histograms.
type metricsDoc struct {
	Serving struct {
		ByRoute          map[string]int64 `json:"by_route"`
		InFlight         int64            `json:"in_flight"`
		RejectedDraining int64            `json:"rejected_draining"`
		RequestsTotal    int64            `json:"requests_total"`
		LatencyUS        map[string]struct {
			Count   int64   `json:"count"`
			Buckets []int64 `json:"buckets"`
			P50     float64 `json:"p50_us"`
			P99     float64 `json:"p99_us"`
		} `json:"latency_us"`
	} `json:"serving"`
}

// Per-route histogram bucket totals must reconcile exactly with the
// request counters: every request that starts also lands in exactly one
// latency bucket, except those still in flight when the snapshot is
// taken (the /metrics request itself) and those refused during a drain
// (never timed).
func TestMetricsHistogramBucketTotals(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2})
	for i := 0; i < 3; i++ {
		if code, _, _ := post(t, ts.URL+"/v1/solve", solveBody); code != http.StatusOK {
			t.Fatalf("solve returned %d", code)
		}
	}
	get(t, ts.URL+"/healthz")
	_, body := get(t, ts.URL+"/metrics")

	var doc metricsDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, body)
	}
	var grand int64
	for route, h := range doc.Serving.LatencyUS {
		var sum int64
		for _, c := range h.Buckets {
			sum += c
		}
		if sum != h.Count {
			t.Errorf("route %s: bucket sum %d != count %d", route, sum, h.Count)
		}
		grand += sum
		want := doc.Serving.ByRoute[route]
		if route == "metrics" {
			want-- // the snapshot ran inside this request, before its own requestEnd
		}
		if sum != want {
			t.Errorf("route %s: bucket sum %d != accepted requests %d", route, sum, want)
		}
	}
	want := doc.Serving.RequestsTotal - doc.Serving.RejectedDraining - doc.Serving.InFlight
	if grand != want {
		t.Errorf("grand bucket total %d != requests_total-rejected_draining-in_flight %d", grand, want)
	}
}

// /metrics must be safe to read while solve traffic is in flight; run
// under -race this hammers the snapshot path against the counter path.
func TestMetricsConcurrentWithSolves(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 4})
	stop := time.Now().Add(300 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; time.Now().Before(stop); i++ {
				body := fmt.Sprintf(`{"arch":%d,"conversations":%d,"server_compute_us":%d}`,
					1+(w+i)%4, 1+i%2, 570*(i%3))
				if code, _, _ := post(t, ts.URL+"/v1/solve", body); code != http.StatusOK {
					t.Errorf("solve returned %d", code)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				if code, _ := get(t, ts.URL+"/metrics"); code != http.StatusOK {
					t.Errorf("metrics returned %d", code)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// With TraceDir set, every TraceEvery-th computing request writes a
// Chrome trace whose spans cover admission, the solver, and encoding.
// The four requests solve four distinct points, so each sampled one
// computes: a sampled repeat would be a cache hit, traced as one.
func TestRequestTraceSampling(t *testing.T) {
	dir := t.TempDir()
	_, ts := testServer(t, Config{Workers: 2, TraceDir: dir, TraceEvery: 2})
	for i := 0; i < 4; i++ {
		body := fmt.Sprintf(`{"arch":%d,"conversations":1,"server_compute_us":1140}`, i+1)
		if code, _, _ := post(t, ts.URL+"/v1/solve", body); code != http.StatusOK {
			t.Fatalf("solve returned %d", code)
		}
	}
	get(t, ts.URL+"/metrics") // never traced

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("got %d trace files %v, want 2 (requests 1 and 3)", len(entries), names)
	}
	for _, want := range []string{"req-1-solve.json", "req-3-solve.json"} {
		raw, err := os.ReadFile(filepath.Join(dir, want))
		if err != nil {
			t.Fatalf("missing trace %s: %v", want, err)
		}
		var doc struct {
			TraceEvents []struct {
				Name string `json:"name"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("%s not JSON: %v", want, err)
		}
		names := map[string]bool{}
		for _, e := range doc.TraceEvents {
			names[e.Name] = true
		}
		for _, span := range []string{"solve", "admission.wait", "core.analyze", "encode"} {
			if !names[span] {
				t.Errorf("%s: span %q missing (have %v)", want, span, names)
			}
		}
	}
}

// The history and request rings are pushed on the sampling and request
// paths while their endpoints copy them out; run under -race this
// hammers every pairing of the two.
func TestObservabilityRingsConcurrent(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 2})
	// call runs off the test goroutine, so it reports with t.Error.
	call := func(method, path, body string) {
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s %s returned %d", method, path, resp.StatusCode)
		}
	}
	stop := time.Now().Add(300 * time.Millisecond)
	var wg sync.WaitGroup
	for _, fn := range []func(i int){
		func(int) { call(http.MethodPost, "/v1/solve", solveBody) },
		func(i int) { s.SampleMetrics(time.UnixMilli(int64(i))) },
		func(int) { call(http.MethodGet, "/debug/requests", "") },
		func(int) { call(http.MethodGet, "/metrics/history", "") },
	} {
		wg.Add(1)
		go func(fn func(int)) {
			defer wg.Done()
			for i := 0; time.Now().Before(stop); i++ {
				fn(i)
			}
		}(fn)
	}
	wg.Wait()
}
