package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gtpn"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/sweep_golden.ndjson")

const sweepBody = `{"arch":2,"points":[{"conversations":1,"server_compute_us":0},{"conversations":1,"server_compute_us":1140},{"conversations":2,"server_compute_us":0},{"conversations":2,"server_compute_us":1140}]}`

// postStream POSTs and returns the raw streamed body.
func postStream(t *testing.T, url, body string) (int, http.Header, []byte) {
	t.Helper()
	return post(t, url, body)
}

// postRaw is post without t.Fatal, for requests issued off the test
// goroutine (t.Fatal must only run on the test goroutine).
func postRaw(url, body string) (int, []byte, error) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func ndjsonLines(t *testing.T, body []byte) [][]byte {
	t.Helper()
	var lines [][]byte
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestSweepStream: the stream returns one NDJSON line per point, in
// order, and each dense-path point's fields agree exactly with the
// single-point /v1/solve body — graph reuse changes no bits, and the
// dense stationary solve ignores warm starts.
func TestSweepStream(t *testing.T) {
	_, ts := testServer(t, Config{})
	code, hdr, body := postStream(t, ts.URL+"/v1/sweep", sweepBody)
	if code != http.StatusOK {
		t.Fatalf("sweep: %d %s", code, body)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	lines := ndjsonLines(t, body)
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4: %s", len(lines), body)
	}
	for i, ln := range lines {
		var got map[string]any
		if err := json.Unmarshal(ln, &got); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if int(got["index"].(float64)) != i {
			t.Fatalf("line %d has index %v", i, got["index"])
		}
		solveReq := fmt.Sprintf(`{"arch":2,"conversations":%d,"server_compute_us":%g}`,
			int(got["conversations"].(float64)), got["server_compute_us"].(float64))
		scode, _, sbody := post(t, ts.URL+"/v1/solve", solveReq)
		if scode != http.StatusOK {
			t.Fatalf("solve: %d %s", scode, sbody)
		}
		var want map[string]any
		if err := json.Unmarshal(sbody, &want); err != nil {
			t.Fatal(err)
		}
		delete(got, "index")
		for k, wv := range want {
			if gv, ok := got[k]; !ok || gv != wv {
				t.Fatalf("line %d: %s = %v, solve says %v", i, k, gv, wv)
			}
		}
	}
}

// TestSweepGolden pins the exact stream bytes: a committed NDJSON
// snapshot, refreshed with -update. The grid stays on the dense path
// (n<=2), whose bits are start-independent and platform-stable like the
// other golden suites.
func TestSweepGolden(t *testing.T) {
	_, ts := testServer(t, Config{})
	code, _, body := postStream(t, ts.URL+"/v1/sweep", sweepBody)
	if code != http.StatusOK {
		t.Fatalf("sweep: %d %s", code, body)
	}
	golden := filepath.Join("testdata", "sweep_golden.ndjson")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing snapshot (run with -update): %v", err)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("sweep stream diverged from golden.\ngot:\n%s\nwant:\n%s", body, want)
	}
}

// TestSweepParallelismByteIdentical: every parallelism level streams
// byte-identical bodies — rows are independent warm chains, so their
// scheduling cannot leak into the bytes.
func TestSweepParallelismByteIdentical(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 4})
	bodyFor := func(par int) []byte {
		req := fmt.Sprintf(`{"arch":2,"parallelism":%d,"points":[{"conversations":1,"server_compute_us":0},{"conversations":1,"server_compute_us":1140},{"conversations":2,"server_compute_us":0},{"conversations":2,"server_compute_us":1140},{"conversations":1,"server_compute_us":2850}]}`, par)
		code, _, body := postStream(t, ts.URL+"/v1/sweep", req)
		if code != http.StatusOK {
			t.Fatalf("parallelism %d: %d %s", par, code, body)
		}
		return body
	}
	base := bodyFor(1)
	if len(ndjsonLines(t, base)) != 5 {
		t.Fatalf("want 5 lines: %s", base)
	}
	for par := 2; par <= 4; par++ {
		if b := bodyFor(par); !bytes.Equal(b, base) {
			t.Fatalf("parallelism %d bytes differ:\n%s\nvs\n%s", par, b, base)
		}
	}
}

// TestSweepValidation: malformed grids are refused up front.
func TestSweepValidation(t *testing.T) {
	_, ts := testServer(t, Config{})
	for _, bad := range []string{
		`{"arch":2,"points":[]}`,
		`{"arch":9,"points":[{"conversations":1}]}`,
		`{"arch":2,"points":[{"conversations":0}]}`,
		`{"arch":2,"parallelism":5,"points":[{"conversations":1}]}`,
		`{"arch":2,"points":[{"conversations":1,"server_compute_us":-1}]}`,
	} {
		if code, _, body := postStream(t, ts.URL+"/v1/sweep", bad); code != http.StatusBadRequest {
			t.Fatalf("request %s: got %d %s, want 400", bad, code, body)
		}
	}
}

// TestSweepRowsSolveIndependently: two concurrent identical sweeps
// share no solve. Each row solves its own chain on its own analyzer, so
// the first sweep to finish point 0 can wait there until the other has
// solved point 0 too; both then stream the same bytes, nothing counts as
// coalesced, and every point of both sweeps counts one leader.
func TestSweepRowsSolveIndependently(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 4})
	const req = `{"arch":2,"points":[{"conversations":1,"server_compute_us":0},{"conversations":1,"server_compute_us":1140}]}`
	const points = 2
	counters := func() (leaders, coalesced int64) {
		s.metrics.mu.Lock()
		defer s.metrics.mu.Unlock()
		return s.metrics.c[fLeaders], s.metrics.c[fCoalesced]
	}
	leaders0, coalesced0 := counters()

	var solved0 atomic.Int32
	both := make(chan struct{})
	s.testHookSweepPoint = func(_ context.Context, i int, err error) {
		if i != 0 {
			return
		}
		switch solved0.Add(1) {
		case 1:
			select {
			case <-both:
			case <-time.After(5 * time.Second):
				t.Error("the second sweep never solved point 0 itself")
			}
		case 2:
			close(both)
		}
	}
	type res struct {
		code int
		body []byte
		err  error
	}
	results := make(chan res, 2)
	for k := 0; k < 2; k++ {
		go func() {
			code, body, err := postRaw(ts.URL+"/v1/sweep", req)
			results <- res{code, body, err}
		}()
	}
	a, b := <-results, <-results
	if a.err != nil || b.err != nil {
		t.Fatalf("sweeps: %v, %v", a.err, b.err)
	}
	if a.code != http.StatusOK || b.code != http.StatusOK {
		t.Fatalf("sweeps: %d %d", a.code, b.code)
	}
	if !bytes.Equal(a.body, b.body) {
		t.Fatalf("identical sweeps returned different bytes:\n%s\nvs\n%s", a.body, b.body)
	}
	leaders, coalesced := counters()
	if coalesced != coalesced0 {
		t.Fatalf("coalesced grew by %d, want 0", coalesced-coalesced0)
	}
	if leaders-leaders0 != 2*points {
		t.Fatalf("leaders grew by %d, want %d", leaders-leaders0, 2*points)
	}
}

// TestSweepClientDisconnect: a client that vanishes mid-stream cancels
// the in-flight solve (the sweep leader runs on the request context),
// and no partial result is cached — a later identical solve misses.
func TestSweepClientDisconnect(t *testing.T) {
	gtpn.ResetSolveCache()
	s, ts := testServer(t, Config{})

	type point struct {
		i   int
		err error
	}
	points := make(chan point, 8)
	s.testHookSweepPoint = func(_ context.Context, i int, err error) {
		points <- point{i, err}
	}

	// Point 1 is a deliberately big solve (n=8 explores >200k states,
	// taking seconds), so the client's disconnect reliably lands while it
	// is in flight — and if cancellation somehow wins the race, the solver
	// still reports context.Canceled from its entry check.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/sweep",
		strings.NewReader(`{"arch":2,"points":[{"conversations":2,"server_compute_us":0},{"conversations":8,"server_compute_us":0}]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: %d", resp.StatusCode)
	}
	// Read point 0's line off the live stream — proof the response is
	// flowing — then vanish.
	if _, err := bufio.NewReader(resp.Body).ReadBytes('\n'); err != nil {
		t.Fatalf("reading first line: %v", err)
	}
	p0 := <-points
	if p0.i != 0 || p0.err != nil {
		t.Fatalf("first point: %+v", p0)
	}
	cancel() // client disconnects mid-stream
	resp.Body.Close()

	p1 := <-points
	if p1.i != 1 {
		t.Fatalf("second point index %d", p1.i)
	}
	if !errors.Is(p1.err, context.Canceled) {
		t.Fatalf("disconnect did not cancel the solver: %v", p1.err)
	}

	// Nothing partial was cached: an identical fresh solve must miss.
	before := gtpn.SolveCacheStats()
	code, _, body := post(t, ts.URL+"/v1/solve", `{"arch":2,"conversations":2,"server_compute_us":0}`)
	if code != http.StatusOK {
		t.Fatalf("probe solve: %d %s", code, body)
	}
	after := gtpn.SolveCacheStats()
	if after.Misses != before.Misses+1 {
		t.Fatalf("probe solve should miss (hits %d->%d, misses %d->%d): sweep leaked into the cache",
			before.Hits, after.Hits, before.Misses, after.Misses)
	}
}

// TestSweepDrainDiscipline extends the drain contract to the streaming
// endpoint: an in-flight sweep runs to completion during a drain, new
// sweeps are refused with 503, and the observability endpoints stay up.
func TestSweepDrainDiscipline(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 2})
	admitted := make(chan string, 1)
	release := make(chan struct{})
	s.testHookAdmitted = func(route string) {
		admitted <- route
		<-release
	}

	type res struct {
		code int
		body []byte
	}
	inflight := make(chan res, 1)
	go func() {
		code, body, err := postRaw(ts.URL+"/v1/sweep", sweepBody)
		if err != nil {
			inflight <- res{0, []byte(err.Error())}
			return
		}
		inflight <- res{code, body}
	}()
	if route := <-admitted; route != "sweep" {
		t.Fatalf("admitted %q", route)
	}

	s.BeginDrain()

	if code, _, body := postStream(t, ts.URL+"/v1/sweep", sweepBody); code != http.StatusServiceUnavailable || !bytes.Contains(body, []byte("draining")) {
		t.Fatalf("new sweep during drain: %d %s", code, body)
	}
	if code, body := get(t, ts.URL+"/healthz"); code != http.StatusServiceUnavailable || !bytes.Contains(body, []byte("draining")) {
		t.Fatalf("healthz during drain: %d %s", code, body)
	}
	if code, _ := get(t, ts.URL+"/metrics"); code != http.StatusOK {
		t.Fatalf("metrics during drain: %d", code)
	}

	close(release)
	r := <-inflight
	if r.code != http.StatusOK {
		t.Fatalf("in-flight sweep during drain: %d %s", r.code, r.body)
	}
	if n := len(ndjsonLines(t, r.body)); n != 4 {
		t.Fatalf("drained sweep emitted %d lines, want 4: %s", n, r.body)
	}

	ctx, cancelDrain := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelDrain()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// TestSweepBackpressure: a sweep is one admission unit; with the pool
// saturated and no queue it is refused with 429 + Retry-After.
func TestSweepBackpressure(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, QueueDepth: -1})
	admitted := make(chan string, 1)
	release := make(chan struct{})
	s.testHookAdmitted = func(route string) {
		admitted <- route
		<-release
	}
	go postRaw(ts.URL+"/v1/solve", solveBody)
	<-admitted

	code, hdr, body := postStream(t, ts.URL+"/v1/sweep", sweepBody)
	if code != http.StatusTooManyRequests {
		t.Fatalf("saturated sweep: %d %s", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	close(release)
}
