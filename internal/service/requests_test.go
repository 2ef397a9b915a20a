package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer is a mutex-guarded bytes.Buffer: the access log is written
// on the server's request goroutine, which can still be running when
// the client's call returns.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

type requestsDoc struct {
	Capacity int64 `json:"capacity"`
	Requests []struct {
		ID        string `json:"id"`
		Route     string `json:"route"`
		Key       string `json:"key"`
		Decision  string `json:"decision"`
		Status    int    `json:"status"`
		Hops      int    `json:"hops"`
		UnixMS    int64  `json:"unix_ms"`
		DecodeUS  int64  `json:"decode_us"`
		ComputeUS int64  `json:"compute_us"`
		TotalUS   int64  `json:"total_us"`
	} `json:"requests"`
}

func debugRequests(t *testing.T, base string) requestsDoc {
	t.Helper()
	code, body := get(t, base+"/debug/requests")
	if code != http.StatusOK {
		t.Fatalf("/debug/requests: %d %s", code, body)
	}
	var doc requestsDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("/debug/requests not JSON: %v\n%s", err, body)
	}
	return doc
}

// Request IDs are deterministic — node name plus a per-node compute
// sequence — and observability polls draw from a separate sequence, so
// scrapes never perturb the compute numbering.
func TestRequestIDsDeterministic(t *testing.T) {
	_, ts := testServer(t, Config{NodeName: "n1"})
	for i := 0; i < 3; i++ {
		get(t, ts.URL+"/metrics") // obs sequence only
	}
	if code, _, b := post(t, ts.URL+"/v1/solve", solveBody); code != 200 {
		t.Fatalf("solve: %d %s", code, b)
	}
	if code, _, b := post(t, ts.URL+"/v1/solve", solveBody); code != 200 {
		t.Fatalf("solve: %d %s", code, b)
	}
	doc := debugRequests(t, ts.URL)
	if len(doc.Requests) != 2 {
		t.Fatalf("ring has %d rows, want 2 (scrapes are exempt): %+v", len(doc.Requests), doc.Requests)
	}
	first, second := doc.Requests[0], doc.Requests[1]
	if first.ID != "n1-1" || second.ID != "n1-2" {
		t.Fatalf("compute IDs = %q, %q; want n1-1, n1-2", first.ID, second.ID)
	}
	if first.Decision != DecisionLocalCompute || first.Status != 200 || first.Key == "" {
		t.Fatalf("first request row = %+v, want local_compute/200 with a key", first)
	}
	if second.Decision != DecisionRespCacheHit {
		t.Fatalf("repeat request decision = %q, want %q", second.Decision, DecisionRespCacheHit)
	}
	if first.TotalUS < first.ComputeUS {
		t.Fatalf("total_us %d < compute_us %d", first.TotalUS, first.ComputeUS)
	}
}

// An inherited X-Ipcd-Request-Id is kept verbatim — one logical request,
// one ID across every hop — and echoed on the response.
func TestRequestIDInherited(t *testing.T) {
	_, ts := testServer(t, Config{NodeName: "n2"})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve", strings.NewReader(solveBody))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(RequestIDHeader, "origin-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d", resp.StatusCode)
	}
	if got := resp.Header.Get(RequestIDHeader); got != "origin-7" {
		t.Fatalf("response %s = %q, want origin-7", RequestIDHeader, got)
	}
	doc := debugRequests(t, ts.URL)
	if len(doc.Requests) != 1 || doc.Requests[0].ID != "origin-7" {
		t.Fatalf("ring rows = %+v, want one row with the inherited ID", doc.Requests)
	}
}

// The ring retains exactly recentRequests rows, oldest evicted first.
func TestRecentRequestsRingWrap(t *testing.T) {
	_, ts := testServer(t, Config{NodeName: "n1"})
	const wrap = 2 // requests served past the capacity
	for i := 0; i < recentRequests+wrap; i++ {
		if code, _, b := post(t, ts.URL+"/v1/solve", solveBody); code != 200 {
			t.Fatalf("solve %d: %d %s", i, code, b)
		}
	}
	doc := debugRequests(t, ts.URL)
	if doc.Capacity != recentRequests || len(doc.Requests) != recentRequests {
		t.Fatalf("capacity %d with %d rows, want %d/%d", doc.Capacity, len(doc.Requests), recentRequests, recentRequests)
	}
	for i, row := range doc.Requests {
		// IDs count from 1, so the oldest survivor is n1-(wrap+1).
		if want := "n1-" + strconv.Itoa(i+wrap+1); row.ID != want {
			t.Fatalf("row %d ID = %q, want %q (oldest first after wrap)", i, row.ID, want)
		}
	}
}

// One access-log record per request, as parseable JSON carrying the
// request ID, route, status and routing decision.
func TestAccessLogJSON(t *testing.T) {
	var logBuf syncBuffer
	_, ts := testServer(t, Config{
		NodeName:  "n1",
		AccessLog: slog.New(slog.NewJSONHandler(&logBuf, nil)),
	})
	if code, _, b := post(t, ts.URL+"/v1/solve", solveBody); code != 200 {
		t.Fatalf("solve: %d %s", code, b)
	}
	get(t, ts.URL+"/healthz")
	// The record is logged on the request goroutine after the response is
	// written, so poll briefly for both lines to land.
	var lines []map[string]any
	deadline := time.Now().Add(2 * time.Second)
	for {
		lines = lines[:0]
		sc := bufio.NewScanner(strings.NewReader(logBuf.String()))
		for sc.Scan() {
			var m map[string]any
			if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
				t.Fatalf("access log line not JSON: %v\n%s", err, sc.Text())
			}
			lines = append(lines, m)
		}
		if len(lines) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("expected 2 access-log lines, got %d", len(lines))
		}
		time.Sleep(5 * time.Millisecond)
	}
	solveLine := lines[0]
	if solveLine["msg"] != "access" || solveLine["id"] != "n1-1" ||
		solveLine["route"] != "solve" || solveLine["status"] != float64(200) ||
		solveLine["decision"] != DecisionLocalCompute {
		t.Fatalf("solve access record = %v", solveLine)
	}
	if solveLine["key"] == "" || solveLine["total_us"] == nil {
		t.Fatalf("solve access record missing key/timings: %v", solveLine)
	}
	if lines[1]["id"] != "n1-o1" || lines[1]["route"] != "healthz" {
		t.Fatalf("healthz access record = %v, want the o-sequence ID", lines[1])
	}
}

// Each latency bucket retains the last request ID that landed in it,
// visible in the JSON view and as an OpenMetrics exemplar.
func TestLatencyExemplars(t *testing.T) {
	s, ts := testServer(t, Config{NodeName: "n1"})
	if code, _, b := post(t, ts.URL+"/v1/solve", solveBody); code != 200 {
		t.Fatalf("solve: %d %s", code, b)
	}
	var doc struct {
		Serving struct {
			LatencyUS map[string]struct {
				Counts    []int64  `json:"buckets"`
				Exemplars []string `json:"exemplars"`
			} `json:"latency_us"`
		} `json:"serving"`
	}
	if err := json.Unmarshal(s.MetricsJSON(), &doc); err != nil {
		t.Fatal(err)
	}
	h, ok := doc.Serving.LatencyUS["solve"]
	if !ok || len(h.Exemplars) != len(h.Counts) {
		t.Fatalf("solve histogram exemplars misaligned: %d exemplars, %d counts", len(h.Exemplars), len(h.Counts))
	}
	found := false
	for i, ex := range h.Exemplars {
		if ex == "n1-1" {
			if h.Counts[i] == 0 {
				t.Fatalf("exemplar n1-1 in empty bucket %d", i)
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("no bucket carries exemplar n1-1: %+v", h)
	}

	var buf bytes.Buffer
	if err := s.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `# {request_id="n1-1"} `) {
		t.Fatalf("openmetrics exposition carries no exemplar for n1-1:\n%s", buf.String())
	}
	// The legacy 0.0.4 format must NOT carry exemplars: Prometheus's
	// plain-text parser rejects them and would drop the whole scrape.
	buf.Reset()
	if err := s.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), " # {") {
		t.Fatalf("legacy 0.0.4 exposition carries exemplars:\n%s", buf.String())
	}
}

// An inherited ID is adopted only when it is bounded and drawn from the
// safe charset; anything else (exposition-breaking characters, oversized
// values) is ignored and the request gets a locally minted ID.
func TestRequestIDInheritedValidation(t *testing.T) {
	_, ts := testServer(t, Config{NodeName: "n3"})
	for _, raw := range []string{`a"} 1`, "sp ace", "x{y", `b\slash`, strings.Repeat("a", 65)} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve", strings.NewReader(solveBody))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(RequestIDHeader, raw)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve with bad inherited ID %q: %d", raw, resp.StatusCode)
		}
		if got := resp.Header.Get(RequestIDHeader); got != "" {
			t.Fatalf("invalid inherited ID %q echoed back as %q", raw, got)
		}
	}
	doc := debugRequests(t, ts.URL)
	if len(doc.Requests) == 0 {
		t.Fatal("no ring rows")
	}
	for i, row := range doc.Requests {
		if want := "n3-" + strconv.Itoa(i+1); row.ID != want {
			t.Fatalf("row %d ID = %q, want locally minted %q", i, row.ID, want)
		}
	}
	// A fleet-shaped ID — default node names are the advertised
	// host:port — must still be inherited verbatim.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve", strings.NewReader(solveBody))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(RequestIDHeader, "127.0.0.1:9001-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(RequestIDHeader); got != "127.0.0.1:9001-7" {
		t.Fatalf("host:port ID not inherited: echoed %q", got)
	}
}

// A traced request bypasses the preencoded-response fast path; the
// bypass is counted so the skew stays visible in the hit/miss ratio.
func TestTraceBypassCounter(t *testing.T) {
	s, ts := testServer(t, Config{NodeName: "n1", TraceDir: t.TempDir(), TraceEvery: 1})
	for i := 0; i < 2; i++ {
		if code, _, b := post(t, ts.URL+"/v1/solve", solveBody); code != 200 {
			t.Fatalf("solve %d: %d %s", i, code, b)
		}
	}
	var doc struct {
		RespCache struct {
			Hits        int64 `json:"hits"`
			TraceBypass int64 `json:"trace_bypass"`
		} `json:"resp_cache"`
	}
	if err := json.Unmarshal(s.MetricsJSON(), &doc); err != nil {
		t.Fatal(err)
	}
	// Every request was traced, so none consulted the fast path.
	if doc.RespCache.TraceBypass != 2 || doc.RespCache.Hits != 0 {
		t.Fatalf("resp_cache trace_bypass=%d hits=%d, want 2/0", doc.RespCache.TraceBypass, doc.RespCache.Hits)
	}
}

// Serving one hop of a remote node's traced request returns this node's
// spans in response headers — and the body bytes are identical to an
// untraced serve.
func TestServeRemoteTraced(t *testing.T) {
	_, ts := testServer(t, Config{NodeName: "owner"})
	_, _, untraced := post(t, ts.URL+"/v1/solve", solveBody)

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve", strings.NewReader(solveBody))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(RequestIDHeader, "n1-9")
	req.Header.Set(TraceHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced hop: %d %s", resp.StatusCode, body.String())
	}
	if !bytes.Equal(body.Bytes(), untraced) {
		t.Fatalf("traced hop body differs from untraced serve:\n%s\nvs\n%s", body.Bytes(), untraced)
	}
	if got := resp.Header.Get(TraceNodeHeader); got != "owner" {
		t.Fatalf("%s = %q, want owner", TraceNodeHeader, got)
	}
	var spans []struct {
		Name string `json:"n"`
		TS   int64  `json:"t"`
	}
	if err := json.Unmarshal([]byte(resp.Header.Get(TraceSpansHeader)), &spans); err != nil {
		t.Fatalf("%s not parseable: %v\n%q", TraceSpansHeader, err, resp.Header.Get(TraceSpansHeader))
	}
	names := map[string]bool{}
	for _, sp := range spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"solve", "decode"} {
		if !names[want] {
			t.Fatalf("remote spans missing %q: %v", want, spans)
		}
	}
}

// X-Ipcd-Trace alone is not trusted: without the inherited request ID a
// cluster forward always carries, the request is served through the
// normal (cache-eligible, unbuffered) path and returns no span headers.
func TestTraceHeaderRequiresInheritedID(t *testing.T) {
	s, ts := testServer(t, Config{NodeName: "owner"})
	if code, _, b := post(t, ts.URL+"/v1/solve", solveBody); code != 200 {
		t.Fatalf("warm solve: %d %s", code, b)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve", strings.NewReader(solveBody))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(TraceHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d", resp.StatusCode)
	}
	if got := resp.Header.Get(TraceSpansHeader); got != "" {
		t.Fatalf("bare %s returned spans: %q", TraceHeader, got)
	}
	if got := resp.Header.Get(TraceNodeHeader); got != "" {
		t.Fatalf("bare %s returned %s: %q", TraceHeader, TraceNodeHeader, got)
	}
	// The warm entry answered it — the bare header must not force the
	// trace bypass that a genuine remote-traced hop takes.
	var doc struct {
		RespCache struct {
			Hits int64 `json:"hits"`
		} `json:"resp_cache"`
	}
	if err := json.Unmarshal(s.MetricsJSON(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RespCache.Hits != 1 {
		t.Fatalf("resp_cache hits = %d, want 1 (bare trace header must stay on the fast path)", doc.RespCache.Hits)
	}
}

// The sweep NDJSON stream is never remote-traced — even a peer-shaped
// trace demand must not buffer the stream or break per-point flushing.
func TestSweepStreamNotRemoteTraced(t *testing.T) {
	_, ts := testServer(t, Config{NodeName: "owner"})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweep", strings.NewReader(sweepBody))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(RequestIDHeader, "n1-4")
	req.Header.Set(TraceHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: %d %s", resp.StatusCode, body.String())
	}
	if got := resp.Header.Get(TraceSpansHeader); got != "" {
		t.Fatalf("sweep stream served remote-traced: %q", got)
	}
}
