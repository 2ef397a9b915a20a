package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
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

// postTraced posts body with X-Ipcd-Trace, and with id as the inherited
// request ID when id is non-empty, and reads the body through EOF, so
// the response's Trailer holds what the server sent after the body.
func postTraced(t *testing.T, url, body, id string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set(RequestIDHeader, id)
	}
	req.Header.Set(TraceHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// spanNames parses a remote-traced hop's serialized spans into the set
// of their names.
func spanNames(t *testing.T, data string) map[string]bool {
	t.Helper()
	var spans []struct {
		Name string `json:"n"`
	}
	if err := json.Unmarshal([]byte(data), &spans); err != nil {
		t.Fatalf("%s not parseable: %v\n%q", TraceSpansHeader, err, data)
	}
	names := map[string]bool{}
	for _, sp := range spans {
		names[sp.Name] = true
	}
	return names
}

// servingCounts reads the leader and response-cache counters.
func servingCounts(t *testing.T, s *Server) (leaders, hits, misses int64) {
	t.Helper()
	var doc struct {
		Serving struct {
			Leaders int64 `json:"leaders"`
		} `json:"serving"`
		RespCache struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"resp_cache"`
	}
	if err := json.Unmarshal(s.MetricsJSON(), &doc); err != nil {
		t.Fatal(err)
	}
	return doc.Serving.Leaders, doc.RespCache.Hits, doc.RespCache.Misses
}

// A trace watches the path that serves a request and never changes it.
// With every request sampled, a repeat is a resp-cache hit, and its
// trace names that decision instead of showing an admission. A
// remote-traced hop for a warm key — a valid inherited ID with
// X-Ipcd-Trace, as a cluster forward sends — is a hit too: it computes
// nothing, answers the untraced bytes, and its spans follow the body in
// the trailer.
func TestTracedRequestTakesFastPath(t *testing.T) {
	dir := t.TempDir()
	s, ts := testServer(t, Config{NodeName: "n1", TraceDir: dir, TraceEvery: 1})
	var bodies [2][]byte
	for i := range bodies {
		code, _, b := post(t, ts.URL+"/v1/solve", solveBody)
		if code != http.StatusOK {
			t.Fatalf("solve %d: %d %s", i, code, b)
		}
		bodies[i] = b
	}
	if leaders, hits, misses := servingCounts(t, s); leaders != 1 || hits != 1 || misses != 1 {
		t.Fatalf("leaders=%d resp_cache hits=%d misses=%d, want 1/1/1: a traced repeat is a hit", leaders, hits, misses)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("traced repeat diverges:\n%s\nvs\n%s", bodies[0], bodies[1])
	}
	events := traceEvents(t, filepath.Join(dir, "req-2-solve.json"))
	if events[DecisionRespCacheHit] != "i" || events["admission.wait"] != "" {
		t.Fatalf("repeat's trace events = %v, want a %s instant and no admission.wait", events, DecisionRespCacheHit)
	}

	resp, body := postTraced(t, ts.URL+"/v1/solve", solveBody, "n0-7")
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, bodies[0]) {
		t.Fatalf("remote-traced hit: %d %s, want 200 and the untraced bytes", resp.StatusCode, body)
	}
	if leaders, hits, _ := servingCounts(t, s); leaders != 1 || hits != 2 {
		t.Fatalf("leaders=%d resp_cache hits=%d after a remote-traced repeat, want 1 and 2: the trace forced a compute", leaders, hits)
	}
	if got := resp.Header.Get(TraceSpansHeader); got != "" {
		t.Fatalf("spans sent as a header, want a trailer: %q", got)
	}
	names := spanNames(t, resp.Trailer.Get(TraceSpansHeader))
	for _, want := range []string{"solve", "decode", DecisionRespCacheHit} {
		if !names[want] {
			t.Fatalf("trailer spans missing %q: %v", want, names)
		}
	}
}

// traceEvents reads a sampled request's trace file: each event's name
// and phase.
func traceEvents(t *testing.T, path string) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace not JSON: %v", err)
	}
	events := map[string]string{}
	for _, e := range doc.TraceEvents {
		events[e.Name] = e.Ph
	}
	return events
}

// TestSingleNodeEncodesNoForwardBody: a Server with no cluster tier
// never forwards, so its fresh compute encodes no forward body: the
// traced compute has no forward.encode span. Its fresh 200 still
// reaches the response cache, so the repeat is a hit.
func TestSingleNodeEncodesNoForwardBody(t *testing.T) {
	dir := t.TempDir()
	s, ts := testServer(t, Config{NodeName: "n1", TraceDir: dir, TraceEvery: 1})
	for i := 0; i < 2; i++ {
		if code, _, b := post(t, ts.URL+"/v1/solve", solveBody); code != http.StatusOK {
			t.Fatalf("solve %d: %d %s", i, code, b)
		}
	}
	events := traceEvents(t, filepath.Join(dir, "req-1-solve.json"))
	if events["gtpn.build"] == "" || events["forward.encode"] != "" {
		t.Fatalf("fresh solve's trace events = %v, want a gtpn.build span and no forward.encode", events)
	}
	if leaders, hits, misses := servingCounts(t, s); leaders != 1 || hits != 1 || misses != 1 {
		t.Fatalf("leaders=%d resp_cache hits=%d misses=%d, want 1/1/1: the repeat is a hit", leaders, hits, misses)
	}
}

// Serving one hop of a remote node's traced request returns this node's
// name in a header and its spans in the trailer — and the body bytes are
// identical to an untraced serve.
func TestServeRemoteTraced(t *testing.T) {
	_, ts := testServer(t, Config{NodeName: "owner"})
	_, _, untraced := post(t, ts.URL+"/v1/solve", solveBody)

	resp, body := postTraced(t, ts.URL+"/v1/solve", solveBody, "n1-9")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced hop: %d %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, untraced) {
		t.Fatalf("traced hop body differs from untraced serve:\n%s\nvs\n%s", body, untraced)
	}
	if got := resp.Header.Get(TraceNodeHeader); got != "owner" {
		t.Fatalf("%s = %q, want owner", TraceNodeHeader, got)
	}
	names := spanNames(t, resp.Trailer.Get(TraceSpansHeader))
	for _, want := range []string{"solve", "decode"} {
		if !names[want] {
			t.Fatalf("remote spans missing %q: %v", want, names)
		}
	}
}

// noSpans fails when a response carries remote-trace output in its
// header or its trailer.
func noSpans(t *testing.T, what string, resp *http.Response) {
	t.Helper()
	for _, h := range []http.Header{resp.Header, resp.Trailer} {
		if got := h.Get(TraceSpansHeader); got != "" {
			t.Fatalf("%s returned spans: %q", what, got)
		}
		if got := h.Get(TraceNodeHeader); got != "" {
			t.Fatalf("%s returned %s: %q", what, TraceNodeHeader, got)
		}
	}
}

// X-Ipcd-Trace alone is not trusted: without the inherited request ID a
// cluster forward always carries, the request records no hop and
// returns no spans.
func TestTraceHeaderRequiresInheritedID(t *testing.T) {
	s, ts := testServer(t, Config{NodeName: "owner"})
	if code, _, b := post(t, ts.URL+"/v1/solve", solveBody); code != 200 {
		t.Fatalf("warm solve: %d %s", code, b)
	}
	resp, body := postTraced(t, ts.URL+"/v1/solve", solveBody, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d %s", resp.StatusCode, body)
	}
	noSpans(t, "bare "+TraceHeader, resp)
	// The warm entry answered it.
	if _, hits, _ := servingCounts(t, s); hits != 1 {
		t.Fatalf("resp_cache hits = %d, want 1", hits)
	}
}

// The sweep NDJSON stream is never remote-traced: a sweep is never
// forwarded, so even a peer-shaped trace demand records no hop.
func TestSweepStreamNotRemoteTraced(t *testing.T) {
	_, ts := testServer(t, Config{NodeName: "owner"})
	resp, body := postTraced(t, ts.URL+"/v1/sweep", sweepBody, "n1-4")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: %d %s", resp.StatusCode, body)
	}
	noSpans(t, "sweep stream", resp)
}

// A remote-traced hop's recorder is sized to what its trailer carries: a
// warm hit served this way allocates well under 64 KB (a recorder of
// 4,096 spans is 295 KB on its own), and a non-local point's compute, a
// hop of about 120 spans, still ships every span it records.
func TestRemoteTracedHopRecorderSize(t *testing.T) {
	s := New(Config{NodeName: "owner"})
	h := s.Handler()
	req, rb, payload := benchSolveRequest()
	req.Header.Set(RequestIDHeader, "n1-9")
	req.Header.Set(TraceHeader, "1")
	w := &discardRW{h: make(http.Header, 4)}
	serve := func() {
		rb.Reset(payload)
		w.status = 0
		clear(w.h)
		h.ServeHTTP(w, req)
	}
	serve() // computes the point
	const n = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		serve()
	}
	runtime.ReadMemStats(&after)
	if w.status != http.StatusOK || s.respCache.Stats().Hits != n || w.h.Get(TraceSpansHeader) == "" {
		t.Fatalf("status %d, resp_cache %+v, spans %q: want %d traced hits", w.status, s.respCache.Stats(), w.h.Get(TraceSpansHeader), n)
	}
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 64<<10 {
		t.Fatalf("a remote-traced warm hit allocates %d bytes, want under 64 KB", per)
	}

	payload = []byte(`{"arch":1,"conversations":2,"server_compute_us":1140,"non_local":true}`)
	serve()
	var spans []struct {
		Name string `json:"n"`
	}
	if err := json.Unmarshal([]byte(w.h.Get(TraceSpansHeader)), &spans); err != nil || w.status != http.StatusOK {
		t.Fatalf("non-local hop: status %d, spans %v", w.status, err)
	}
	// The ring keeps the newest spans, so a full one would have lost
	// decode, the hop's first.
	if len(spans) < 100 || len(spans) >= remoteTraceSpans || spans[0].Name != "decode" || spans[len(spans)-1].Name != "solve" {
		t.Fatalf("non-local hop shipped %d spans, %v ... %v; want all of them, decode through solve", len(spans), spans[0], spans[len(spans)-1])
	}
}
