package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"
)

// promParse is a minimal exposition-format checker: every line is
// either `# TYPE <name> <counter|gauge|histogram>` or
// `<name>{labels} <value>` with a parseable float value and balanced,
// quoted labels. It returns metric name -> sample count.
func promParse(t *testing.T, body []byte) map[string]int {
	t.Helper()
	types := map[string]string{}
	samples := map[string]int{}
	for i, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if line == "" {
			t.Fatalf("line %d: empty", i+1)
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			fields := strings.Fields(rest)
			if len(fields) != 2 {
				t.Fatalf("line %d: malformed TYPE line %q", i+1, line)
			}
			switch fields[1] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("line %d: unknown type %q", i+1, fields[1])
			}
			if _, dup := types[fields[0]]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", i+1, fields[0])
			}
			types[fields[0]] = fields[1]
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("line %d: no value: %q", i+1, line)
		}
		if j := strings.IndexByte(name, '{'); j >= 0 {
			labels := name[j:]
			name = name[:j]
			if !strings.HasSuffix(labels, "}") || !strings.Contains(labels, `="`) {
				t.Fatalf("line %d: malformed labels %q", i+1, labels)
			}
		}
		// OpenMetrics exemplar suffix on histogram buckets:
		// `<value> # {label="v"} <exemplarValue>`. The exemplar's own
		// value must parse too.
		if value, exemplar, found := strings.Cut(value, " # "); found {
			labels, exVal, ok := strings.Cut(exemplar, "} ")
			if !ok || !strings.HasPrefix(labels, "{") || !strings.Contains(labels, `="`) {
				t.Fatalf("line %d: malformed exemplar %q", i+1, exemplar)
			}
			if _, err := strconv.ParseFloat(exVal, 64); err != nil {
				t.Fatalf("line %d: bad exemplar value %q: %v", i+1, exVal, err)
			}
			if _, err := strconv.ParseFloat(value, 64); err != nil {
				t.Fatalf("line %d: bad value %q: %v", i+1, value, err)
			}
		} else if _, err := strconv.ParseFloat(value, 64); err != nil {
			t.Fatalf("line %d: bad value %q: %v", i+1, value, err)
		}
		// A sample must belong to a declared family; histogram series
		// carry the _bucket/_sum/_count suffixes.
		family := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if f, ok := strings.CutSuffix(name, suf); ok && types[f] == "histogram" {
				family = f
			}
		}
		if _, ok := types[family]; !ok {
			t.Fatalf("line %d: sample %q precedes its TYPE line", i+1, name)
		}
		samples[family]++
	}
	return samples
}

// The acceptance-criterion pair: /metrics?format=prometheus parses under
// the line-format checker, and the exposition of an unchanged server is
// byte-identical across snapshots (WritePrometheus is called directly —
// an HTTP round trip would observe itself through the request counters).
func TestPrometheusExposition(t *testing.T) {
	s, ts := testServer(t, Config{})
	if code, _, b := post(t, ts.URL+"/v1/solve", solveBody); code != 200 {
		t.Fatalf("solve: %d %s", code, b)
	}
	code, body := get(t, ts.URL+"/metrics?format=prometheus")
	if code != 200 {
		t.Fatalf("prometheus metrics: %d %s", code, body)
	}
	samples := promParse(t, body)
	for _, want := range []string{
		"ipcd_requests_total", "ipcd_route_requests_total", "ipcd_in_flight",
		"ipcd_queue_depth", "ipcd_coalesced_total", "ipcd_leaders_total",
		"ipcd_rejected_busy_total", "ipcd_rejected_draining_total", "ipcd_errors_total",
		"ipcd_gtpn_cache_hits_total", "ipcd_gtpn_engine_states_explored_total",
		"ipcd_request_duration_us",
	} {
		if samples[want] == 0 && want != "ipcd_request_duration_us" {
			t.Errorf("family %s missing or empty", want)
		}
	}
	// The solve above must have produced a full histogram series for its
	// route: len(bounds)+1 buckets plus _sum and _count.
	if got, want := samples["ipcd_request_duration_us"], 0; got <= want {
		t.Errorf("no histogram samples emitted")
	}

	var one, two bytes.Buffer
	if err := s.WritePrometheus(&one); err != nil {
		t.Fatal(err)
	}
	if err := s.WritePrometheus(&two); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one.Bytes(), two.Bytes()) {
		t.Fatalf("exposition of an unchanged server differs:\n%s\n---\n%s", one.Bytes(), two.Bytes())
	}
}

// The exposition dialect follows content negotiation: a plain scrape
// gets the legacy 0.0.4 format (no exemplars — its parser rejects
// them), while an Accept: application/openmetrics-text scrape gets the
// OpenMetrics dialect with exemplars, suffix-free counter TYPE lines,
// and a terminating # EOF.
func TestPrometheusOpenMetricsNegotiation(t *testing.T) {
	_, ts := testServer(t, Config{NodeName: "n1"})
	if code, _, b := post(t, ts.URL+"/v1/solve", solveBody); code != 200 {
		t.Fatalf("solve: %d %s", code, b)
	}

	resp, err := http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	legacy, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain; version=0.0.4") {
		t.Fatalf("legacy scrape Content-Type = %q", ct)
	}
	if bytes.Contains(legacy, []byte(" # {")) || bytes.Contains(legacy, []byte("# EOF")) {
		t.Fatalf("legacy scrape carries OpenMetrics constructs:\n%s", legacy)
	}
	promParse(t, legacy)

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/metrics?format=prometheus", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/openmetrics-text;version=1.0.0;q=0.75,text/plain;version=0.0.4;q=0.5")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	om, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/openmetrics-text") {
		t.Fatalf("openmetrics scrape Content-Type = %q", ct)
	}
	if !bytes.HasSuffix(om, []byte("# EOF\n")) {
		t.Fatalf("openmetrics scrape not terminated with # EOF:\n...%s", om[max(0, len(om)-80):])
	}
	if !bytes.Contains(om, []byte(`# {request_id="n1-1"} `)) {
		t.Fatalf("openmetrics scrape carries no exemplar:\n%s", om)
	}
	// OpenMetrics counter families drop the _total sample suffix in
	// their TYPE declarations.
	if !bytes.Contains(om, []byte("# TYPE ipcd_requests counter\n")) ||
		bytes.Contains(om, []byte("# TYPE ipcd_requests_total counter\n")) {
		t.Fatalf("openmetrics counter TYPE lines keep the _total suffix:\n%s", om)
	}
	if !bytes.Contains(om, []byte("\nipcd_requests_total ")) {
		t.Fatalf("openmetrics counter samples lost the _total suffix:\n%s", om)
	}
}

// The cumulative bucket counts must be monotone per route and end at the
// route's _count, and _count must match the JSON view's histogram count.
func TestPrometheusHistogramConsistency(t *testing.T) {
	s, ts := testServer(t, Config{})
	for i := 0; i < 3; i++ {
		if code, _, b := post(t, ts.URL+"/v1/solve", solveBody); code != 200 {
			t.Fatalf("solve: %d %s", code, b)
		}
	}
	var buf bytes.Buffer
	if err := s.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var last int64 = -1
	var lastBucket, count int64
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, `ipcd_request_duration_us_bucket{route="solve"`) {
			// The cumulative count is the first value after the labels; an
			// exemplar suffix (` # {...} v`) may follow it.
			if cut, _, found := strings.Cut(line, " # "); found {
				line = cut
			}
			v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			if v < last {
				t.Fatalf("bucket counts not cumulative: %d after %d", v, last)
			}
			last, lastBucket = v, v
		}
		if strings.HasPrefix(line, `ipcd_request_duration_us_count{route="solve"}`) {
			v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			count = v
		}
	}
	if count != 3 || lastBucket != count {
		t.Fatalf("solve histogram: +Inf bucket %d, count %d, want both 3", lastBucket, count)
	}
}

// The history ring keeps the newest historySize samples in order across
// a wrap, and the endpoint reports them oldest first.
func TestMetricsHistoryRing(t *testing.T) {
	s, ts := testServer(t, Config{})
	base := time.UnixMilli(1_000_000)
	const wrap = 3 // samples pushed past the capacity
	for i := 0; i < historySize+wrap; i++ {
		s.SampleMetrics(base.Add(time.Duration(i) * time.Second))
	}
	code, body := get(t, ts.URL+"/metrics/history")
	if code != 200 {
		t.Fatalf("history: %d %s", code, body)
	}
	var doc struct {
		Capacity int64 `json:"capacity"`
		Points   []struct {
			UnixMS        int64 `json:"unix_ms"`
			RequestsTotal int64 `json:"requests_total"`
		} `json:"points"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("history not JSON: %v\n%s", err, body)
	}
	if doc.Capacity != historySize || len(doc.Points) != historySize {
		t.Fatalf("capacity %d, %d points, want %d/%d", doc.Capacity, len(doc.Points), historySize, historySize)
	}
	for i, p := range doc.Points {
		// The first wrap samples are evicted; the rest survive, oldest first.
		if want := base.Add(time.Duration(i+wrap) * time.Second).UnixMilli(); p.UnixMS != want {
			t.Errorf("point %d: unix_ms %d, want %d", i, p.UnixMS, want)
		}
	}
	newest := base.Add((historySize + wrap) * time.Second)
	s.SampleMetrics(newest)
	_, body = get(t, ts.URL+"/metrics/history")
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	last := doc.Points[len(doc.Points)-1]
	if last.UnixMS != newest.UnixMilli() {
		t.Fatalf("newest sample not last: %+v", doc.Points)
	}
	// The sample above ran after one /metrics/history request completed.
	if last.RequestsTotal < 1 {
		t.Fatalf("sampled counters empty: %+v", last)
	}
}

// All observability endpoints stay reachable during a drain — and
// healthz's 503 carries the draining status in its JSON body.
func TestObservabilityDuringDrain(t *testing.T) {
	s, ts := testServer(t, Config{})
	s.SampleMetrics(time.UnixMilli(5))
	s.BeginDrain()

	code, body := get(t, ts.URL+"/healthz")
	if code != http.StatusServiceUnavailable || !bytes.Contains(body, []byte(`"status":"draining"`)) {
		t.Fatalf("healthz during drain: %d %q", code, body)
	}
	if code, body := get(t, ts.URL+"/debug/health"); code != 200 || !bytes.Contains(body, []byte(`"peers":[]`)) {
		t.Fatalf("debug/health during drain: %d %s", code, body)
	}
	if code, body := get(t, ts.URL+"/debug/events"); code != 200 {
		t.Fatalf("debug/events during drain: %d %s", code, body)
	}
	if code, body := get(t, ts.URL+"/metrics?format=prometheus"); code != 200 {
		t.Fatalf("prometheus metrics during drain: %d %s", code, body)
	} else {
		promParse(t, body)
	}
	if code, body := get(t, ts.URL+"/metrics/history"); code != 200 || !bytes.Contains(body, []byte(`"unix_ms":5`)) {
		t.Fatalf("history during drain: %d %s", code, body)
	}
}
