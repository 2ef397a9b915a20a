package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

const solveBody = `{"arch":2,"conversations":1,"server_compute_us":1140}`

// testServer spins up a Server on httptest with small, deterministic
// pool dimensions.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func post(t *testing.T, url, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, b
}

func TestEndpointsServe(t *testing.T) {
	_, ts := testServer(t, Config{})

	if code, body := get(t, ts.URL+"/healthz"); code != 200 ||
		!strings.Contains(string(body), `"status":"ok"`) ||
		!strings.Contains(string(body), `"node":"ipcd"`) ||
		!strings.Contains(string(body), `"version":"dev"`) ||
		!strings.Contains(string(body), `"epoch":0`) ||
		!strings.Contains(string(body), `"uptime_s":`) {
		t.Fatalf("healthz: %d %q", code, body)
	}

	code, body := get(t, ts.URL+"/v1/experiments")
	if code != 200 {
		t.Fatalf("experiments: %d %s", code, body)
	}
	var list struct {
		Experiments []struct{ ID, Title string } `json:"experiments"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Experiments) < 30 || list.Experiments[0].ID != "T3.1" {
		t.Fatalf("experiment list wrong: %d entries, first %+v", len(list.Experiments), list.Experiments[0])
	}

	code, body = get(t, ts.URL+"/v1/experiments/T5.1")
	if code != 200 || !bytes.Contains(body, []byte("Smart Bus Signals")) {
		t.Fatalf("experiment T5.1: %d %s", code, body)
	}

	code, body = get(t, ts.URL+"/v1/experiments/NOPE")
	if code != 404 || !bytes.Contains(body, []byte(`"valid_ids"`)) || !bytes.Contains(body, []byte(`"T6.24"`)) {
		t.Fatalf("unknown experiment: %d %s", code, body)
	}

	code, _, body = post(t, ts.URL+"/v1/solve", solveBody)
	if code != 200 {
		t.Fatalf("solve: %d %s", code, body)
	}
	var pred struct {
		ThroughputRPS float64 `json:"throughput_rps"`
		States        int     `json:"states"`
	}
	if err := json.Unmarshal(body, &pred); err != nil {
		t.Fatal(err)
	}
	if pred.ThroughputRPS <= 0 || pred.States <= 0 {
		t.Fatalf("solve returned empty prediction: %s", body)
	}

	code, _, body = post(t, ts.URL+"/v1/solve", `{"arch":9,"conversations":1}`)
	if code != 400 {
		t.Fatalf("bad arch accepted: %d %s", code, body)
	}

	code, _, body = post(t, ts.URL+"/v1/simulate",
		`{"arch":1,"conversations":1,"server_compute_us":1140,"seconds":1,"seed":7}`)
	if code != 200 || !bytes.Contains(body, []byte(`"round_trips"`)) {
		t.Fatalf("simulate: %d %s", code, body)
	}

	code, body = get(t, ts.URL+"/metrics")
	if code != 200 || !bytes.Contains(body, []byte(`"gtpn_cache"`)) || !bytes.Contains(body, []byte(`"requests_total"`)) {
		t.Fatalf("metrics: %d %s", code, body)
	}
	if !bytes.Contains(body, []byte(`"gtpn_engine"`)) || !bytes.Contains(body, []byte(`"states_explored"`)) {
		t.Fatalf("metrics missing engine counters: %s", body)
	}
}

// TestDeterministicResponses pins the byte-determinism contract: the
// same request, repeated, yields byte-identical bodies — for the
// analytic path, the seeded simulation path, and the experiment path.
func TestDeterministicResponses(t *testing.T) {
	_, ts := testServer(t, Config{})

	for name, do := range map[string]func() (int, []byte){
		"solve": func() (int, []byte) {
			code, _, b := post(t, ts.URL+"/v1/solve", solveBody)
			return code, b
		},
		"simulate": func() (int, []byte) {
			code, _, b := post(t, ts.URL+"/v1/simulate",
				`{"arch":2,"conversations":1,"server_compute_us":1140,"seconds":1,"seed":42,"replications":2}`)
			return code, b
		},
		"experiment": func() (int, []byte) {
			code, b := get(t, ts.URL+"/v1/experiments/T6.1")
			return code, b
		},
	} {
		t.Run(name, func(t *testing.T) {
			c1, b1 := do()
			c2, b2 := do()
			if c1 != 200 || c2 != 200 {
				t.Fatalf("status %d/%d", c1, c2)
			}
			if !bytes.Equal(b1, b2) {
				t.Fatalf("responses differ:\n%s\n%s", b1, b2)
			}
		})
	}
}

// TestSolveResponseSortedKeys checks the deterministic encoder's
// observable contract on a real response: keys arrive sorted.
func TestSolveResponseSortedKeys(t *testing.T) {
	_, ts := testServer(t, Config{})
	code, _, body := post(t, ts.URL+"/v1/solve", solveBody)
	if code != 200 {
		t.Fatalf("solve: %d %s", code, body)
	}
	want := []string{"arch", "conversations", "hosts", "non_local",
		"offered_load", "round_trip_us", "server_compute_us", "states", "throughput_rps"}
	last := -1
	for _, k := range want {
		i := bytes.Index(body, []byte(`"`+k+`"`))
		if i < 0 {
			t.Fatalf("response missing %q: %s", k, body)
		}
		if i < last {
			t.Fatalf("key %q out of sorted order: %s", k, body)
		}
		last = i
	}
}

// TestCoalescing holds a leader in flight, piles N identical requests on
// it, and checks one underlying solve served them all byte-identically.
func TestCoalescing(t *testing.T) {
	const followers = 7
	s, ts := testServer(t, Config{Workers: 2, QueueDepth: 8})
	admitted := make(chan string, 1)
	release := make(chan struct{})
	s.testHookAdmitted = func(key string) {
		admitted <- key
		<-release
	}

	type result struct {
		code int
		body []byte
	}
	results := make(chan result, followers+1)
	doPost := func() {
		code, _, body := post(t, ts.URL+"/v1/solve", solveBody)
		results <- result{code, body}
	}
	go doPost()
	key := <-admitted // the leader holds a worker slot now

	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); doPost() }()
	}
	// Wait until every follower has joined the leader's flight, then let
	// the leader compute.
	for s.flights.waitersFor(key) != followers {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	var first []byte
	for i := 0; i < followers+1; i++ {
		r := <-results
		if r.code != 200 {
			t.Fatalf("request %d: status %d %s", i, r.code, r.body)
		}
		if first == nil {
			first = r.body
		} else if !bytes.Equal(first, r.body) {
			t.Fatalf("coalesced bodies differ:\n%s\n%s", first, r.body)
		}
	}
	s.metrics.mu.Lock()
	leaders, coalesced := s.metrics.c[fLeaders], s.metrics.c[fCoalesced]
	s.metrics.mu.Unlock()
	if leaders != 1 {
		t.Fatalf("want 1 underlying solve, got %d", leaders)
	}
	if coalesced != followers {
		t.Fatalf("want %d coalesced requests, got %d", followers, coalesced)
	}
}

// TestBackpressure fills the single worker and the admission queue, then
// checks the next (distinct) request is refused with 429 + Retry-After.
func TestBackpressure(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, QueueDepth: -1}) // no queue
	admitted := make(chan string, 1)
	release := make(chan struct{})
	s.testHookAdmitted = func(key string) {
		admitted <- key
		<-release
	}

	blocked := make(chan struct{ code int }, 1)
	go func() {
		code, _, _ := post(t, ts.URL+"/v1/solve", solveBody)
		blocked <- struct{ code int }{code}
	}()
	<-admitted // worker slot held

	// A different workload point cannot coalesce; with no queue it must
	// bounce immediately.
	code, hdr, body := post(t, ts.URL+"/v1/solve",
		`{"arch":3,"conversations":1,"server_compute_us":1140}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("want 429, got %d %s", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if !bytes.Contains(body, []byte("admission queue full")) {
		t.Fatalf("unexpected 429 body: %s", body)
	}

	close(release)
	if r := <-blocked; r.code != 200 {
		t.Fatalf("held request failed: %d", r.code)
	}

	// With the pool idle again the same point succeeds.
	s.testHookAdmitted = nil
	code, _, body = post(t, ts.URL+"/v1/solve", `{"arch":3,"conversations":1,"server_compute_us":1140}`)
	if code != 200 {
		t.Fatalf("after backpressure cleared: %d %s", code, body)
	}
}

// TestGracefulDrain checks the SIGTERM contract: in-flight requests
// complete after drain begins, new ones are refused, and Drain returns
// once the server is idle.
func TestGracefulDrain(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1})
	admitted := make(chan string, 1)
	release := make(chan struct{})
	s.testHookAdmitted = func(key string) {
		admitted <- key
		<-release
	}

	inflight := make(chan struct {
		code int
		body []byte
	}, 1)
	go func() {
		code, _, body := post(t, ts.URL+"/v1/solve", solveBody)
		inflight <- struct {
			code int
			body []byte
		}{code, body}
	}()
	<-admitted

	s.BeginDrain()

	// New work is refused with 503 and Connection: close.
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(solveBody))
	if err != nil {
		t.Fatal(err)
	}
	refused, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !bytes.Contains(refused, []byte("draining")) {
		t.Fatalf("drain refusal: %d %s", resp.StatusCode, refused)
	}
	if resp.Header.Get("Connection") != "close" && !resp.Close {
		t.Fatalf("drain refusal should close the connection")
	}

	// Health reports draining.
	if code, body := get(t, ts.URL+"/healthz"); code != http.StatusServiceUnavailable || !bytes.Contains(body, []byte("draining")) {
		t.Fatalf("healthz during drain: %d %s", code, body)
	}

	// The in-flight request still completes.
	close(release)
	if r := <-inflight; r.code != 200 {
		t.Fatalf("in-flight request after drain: %d %s", r.code, r.body)
	}

	// Drain observes the idle server.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// solverCounters is the process solve cache's row and the engine's
// graphs_built, as the server's /metrics reports them.
type solverCounters struct {
	Cache struct {
		Hits     float64 `json:"hits"`
		Misses   float64 `json:"misses"`
		Bypassed float64 `json:"bypassed"`
		Entries  float64 `json:"entries"`
	} `json:"gtpn_cache"`
	Engine struct {
		Graphs float64 `json:"graphs_built"`
	} `json:"gtpn_engine"`
}

func readSolverCounters(t *testing.T, url string) solverCounters {
	t.Helper()
	_, body := get(t, url+"/metrics")
	var m solverCounters
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestMetricsCacheCounters checks the GTPN solve-cache counters surface
// through /metrics and show that a served solve skips the cache: it
// counts one bypass and adds no entry, no hit and no miss. (gtpn's
// cache_test.go pins hit and miss counting.)
func TestMetricsCacheCounters(t *testing.T) {
	_, ts := testServer(t, Config{})

	c0 := readSolverCounters(t, ts.URL).Cache
	if code, _, b := post(t, ts.URL+"/v1/solve", `{"arch":4,"conversations":1,"server_compute_us":570}`); code != 200 {
		t.Fatalf("solve: %d %s", code, b)
	}
	// The first solve of an arch also solves the Server's C.
	want := c0
	want.Bypassed += 2
	c1 := readSolverCounters(t, ts.URL).Cache
	if c1 != want {
		t.Fatalf("cold solve: solve cache %+v -> %+v, want %+v", c0, c1, want)
	}
	// A second point of the arch misses the response cache and reaches
	// the solver, which solves it alone.
	if code, _, b := post(t, ts.URL+"/v1/solve", `{"arch":4,"conversations":1,"server_compute_us":571}`); code != 200 {
		t.Fatalf("solve: %d %s", code, b)
	}
	want.Bypassed++
	if c2 := readSolverCounters(t, ts.URL).Cache; c2 != want {
		t.Fatalf("second point: solve cache %+v -> %+v, want %+v", c1, c2, want)
	}
}

// TestFreshSolvesReuseServerC: the Server solves an architecture's
// canonical round trip C once, so a second fresh point of that
// architecture builds one graph, its own.
func TestFreshSolvesReuseServerC(t *testing.T) {
	_, ts := testServer(t, Config{})

	if code, _, b := post(t, ts.URL+"/v1/solve", `{"arch":1,"conversations":1,"server_compute_us":333}`); code != 200 {
		t.Fatalf("solve: %d %s", code, b)
	}
	graphs1 := readSolverCounters(t, ts.URL).Engine.Graphs
	if code, _, b := post(t, ts.URL+"/v1/solve", `{"arch":1,"conversations":1,"server_compute_us":777}`); code != 200 {
		t.Fatalf("solve: %d %s", code, b)
	}
	if graphs2 := readSolverCounters(t, ts.URL).Engine.Graphs; graphs2 != graphs1+1 {
		t.Fatalf("second fresh solve: graphs_built %v -> %v, want one graph", graphs1, graphs2)
	}
}

// TestServedPointsLeaveNothingInSolveCache: fresh local and non-local
// points of every architecture, answered by one Server, leave the
// process solve cache as it was. Every graph the Server builds is an
// uncached solve, so Bypassed grows by graphs_built and nothing else
// moves.
func TestServedPointsLeaveNothingInSolveCache(t *testing.T) {
	_, ts := testServer(t, Config{})
	m0 := readSolverCounters(t, ts.URL)
	requests := 0
	for arch := 1; arch <= maxArch; arch++ {
		for _, nonLocal := range []bool{false, true} {
			for i := 0; i < 8; i++ {
				body := fmt.Sprintf(`{"arch":%d,"conversations":1,"server_compute_us":%g,"non_local":%v}`,
					arch, 100+437.25*float64(i), nonLocal)
				if code, _, b := post(t, ts.URL+"/v1/solve", body); code != 200 {
					t.Fatalf("%s: %d %s", body, code, b)
				}
				requests++
			}
		}
	}
	m1 := readSolverCounters(t, ts.URL)
	graphs := m1.Engine.Graphs - m0.Engine.Graphs
	if graphs < float64(requests) {
		t.Fatalf("%d fresh points built %v graphs", requests, graphs)
	}
	want := m0.Cache
	want.Bypassed += graphs
	if m1.Cache != want {
		t.Fatalf("after %d fresh points (%v graphs): solve cache %+v -> %+v, want %+v",
			requests, graphs, m0.Cache, m1.Cache, want)
	}
}

// TestMetricsEngineCounters checks the solver engine counters surface
// through /metrics and move when a cold solve builds a graph: a fresh
// point costs a graph build and some explored states, a response-cache
// hit costs neither.
func TestMetricsEngineCounters(t *testing.T) {
	_, ts := testServer(t, Config{})

	read := func() (graphs, states float64) {
		_, body := get(t, ts.URL+"/metrics")
		var m struct {
			Engine struct {
				Graphs float64 `json:"graphs_built"`
				States float64 `json:"states_explored"`
			} `json:"gtpn_engine"`
		}
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatal(err)
		}
		return m.Engine.Graphs, m.Engine.States
	}

	graphs0, states0 := read()
	body := `{"arch":3,"conversations":1,"server_compute_us":570}`
	if code, _, b := post(t, ts.URL+"/v1/solve", body); code != 200 {
		t.Fatalf("solve: %d %s", code, b)
	}
	graphs1, states1 := read()
	if graphs1 <= graphs0 || states1 <= states0 {
		t.Fatalf("cold solve built no graph: (%v, %v) -> (%v, %v)", graphs0, states0, graphs1, states1)
	}
	if code, _, b := post(t, ts.URL+"/v1/solve", body); code != 200 {
		t.Fatalf("solve: %d %s", code, b)
	}
	graphs2, _ := read()
	if graphs2 != graphs1 {
		t.Fatalf("warm solve rebuilt the graph: %v -> %v", graphs1, graphs2)
	}
}
