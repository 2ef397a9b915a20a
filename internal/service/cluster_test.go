package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// postHops posts with a forged X-Ipcd-Hops header.
func postHops(t *testing.T, url, body, hops string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(HopsHeader, hops)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

// The hop-limit rejection path: a request arriving with the forwarding
// budget spent is refused with 508 before any decode or compute, so a
// misconfigured ring can never loop a request.
func TestHopLimitRejection(t *testing.T) {
	s, ts := testServer(t, Config{})

	for _, route := range []string{"/v1/solve", "/v1/simulate"} {
		code, body := postHops(t, ts.URL+route, solveBody, "2")
		if code != http.StatusLoopDetected {
			t.Fatalf("%s hops=2: %d %s, want 508", route, code, body)
		}
		if !bytes.Contains(body, []byte(`"max_hops":2`)) {
			t.Fatalf("%s 508 body missing the limit: %s", route, body)
		}
	}
	// Far over the limit is rejected the same way.
	if code, body := postHops(t, ts.URL+"/v1/solve", solveBody, "7"); code != http.StatusLoopDetected {
		t.Fatalf("hops=7: %d %s, want 508", code, body)
	}
	// Malformed or negative counts are plain bad requests.
	for _, h := range []string{"banana", "-1", "1.5"} {
		if code, body := postHops(t, ts.URL+"/v1/solve", solveBody, h); code != http.StatusBadRequest {
			t.Fatalf("hops=%q: %d %s, want 400", h, code, body)
		}
	}
	// Within budget, the request serves normally.
	if code, body := postHops(t, ts.URL+"/v1/solve", solveBody, "1"); code != http.StatusOK {
		t.Fatalf("hops=1: %d %s, want 200", code, body)
	}

	var doc struct {
		Serving struct {
			RejectedHops int64 `json:"rejected_hops"`
		} `json:"serving"`
	}
	if err := json.Unmarshal(s.MetricsJSON(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Serving.RejectedHops != 3 {
		t.Fatalf("rejected_hops = %d, want 3 (the 508s)", doc.Serving.RejectedHops)
	}
	// Each 508's row names the hop count that caused it.
	var hops []int
	for _, row := range debugRequests(t, ts.URL).Requests {
		if row.Status == http.StatusLoopDetected {
			hops = append(hops, row.Hops)
		}
	}
	if fmt.Sprint(hops) != "[2 2 7]" {
		t.Fatalf("508 rows' hops = %v, want [2 2 7]", hops)
	}
}

// fakeRouter is a scriptable ClusterRouter for exercising the service
// side of the cluster hook without real peers.
type fakeRouter struct {
	mu        sync.Mutex
	owns      bool     // this node owns every key: ServeHeld refuses
	held      []string // the keys ServeHeld was asked about
	route     func(spec ComputeSpec) (RoutedResult, bool)
	routed    []ComputeSpec
	offered   map[string][]byte
	fannedOut string // the last path passed to FanOut
}

func (f *fakeRouter) ServeHeld(key string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.held = append(f.held, key)
	return !f.owns
}

func (f *fakeRouter) Route(_ context.Context, spec ComputeSpec) (RoutedResult, bool) {
	f.mu.Lock()
	f.routed = append(f.routed, spec)
	fn := f.route
	f.mu.Unlock()
	if fn == nil {
		return RoutedResult{}, false
	}
	return fn(spec)
}

func (f *fakeRouter) Offer(spec ComputeSpec, body []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.offered == nil {
		f.offered = map[string][]byte{}
	}
	f.offered[spec.Key] = append([]byte(nil), body...)
}

func (f *fakeRouter) MetricsSnapshot() map[string]any {
	return map[string]any{"fake": true}
}

func (f *fakeRouter) Epoch() int64 { return 42 }

func (f *fakeRouter) HealthSnapshot() []map[string]any {
	return []map[string]any{{"peer": "http://fake:1", "state": "healthy", "unix_ms": int64(0)}}
}

// FanOut answers for three members: self with the body passed in, one
// peer with a marker body naming the path, and one silent peer.
func (f *fakeRouter) FanOut(_ context.Context, path string, self []byte) Fanout {
	f.mu.Lock()
	f.fannedOut = path
	f.mu.Unlock()
	return Fanout{
		Self:    "http://fake:0",
		Members: []string{"http://fake:0", "http://fake:1", "http://fake:2"},
		Bodies: map[string][]byte{
			"http://fake:0": self,
			"http://fake:1": []byte(`{"aggregated":"` + path + `"}`),
		},
	}
}

func (f *fakeRouter) lastFanOut() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fannedOut
}

func (f *fakeRouter) routedSpecs() []ComputeSpec {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]ComputeSpec(nil), f.routed...)
}

func (f *fakeRouter) offeredBody(key string) ([]byte, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	b, ok := f.offered[key]
	return b, ok
}

func TestClusterRouterHook(t *testing.T) {
	canned := []byte(`{"served":"by-peer"}`)
	fr := &fakeRouter{}
	s, ts := testServer(t, Config{Cluster: fr})

	// Route declines: the server computes locally and offers the result
	// back for replication, carrying the canonical body and key.
	code, _, body := post(t, ts.URL+"/v1/solve", solveBody)
	if code != http.StatusOK {
		t.Fatalf("local compute: %d %s", code, body)
	}
	specs := fr.routedSpecs()
	if len(specs) != 1 || specs[0].Route != "solve" || specs[0].Hops != 0 {
		t.Fatalf("routed specs = %+v, want one solve at zero hops", specs)
	}
	wantKey, err := SolveKey(2, 1, 1, 1140, false)
	if err != nil {
		t.Fatal(err)
	}
	if specs[0].Key != wantKey {
		t.Fatalf("routed key = %q, want %q", specs[0].Key, wantKey)
	}
	var canonical map[string]any
	if err := json.Unmarshal(specs[0].Body, &canonical); err != nil || canonical["hosts"] != float64(1) {
		t.Fatalf("canonical body %s not replayable with defaults applied (err %v)", specs[0].Body, err)
	}
	offered, ok := fr.offeredBody(wantKey)
	if !ok || !bytes.Equal(offered, body) {
		t.Fatalf("offered body = %q, want the response bytes", offered)
	}

	// Route serves: the canned result is written verbatim and counted,
	// and nothing new is offered.
	fr.mu.Lock()
	fr.route = func(ComputeSpec) (RoutedResult, bool) {
		return RoutedResult{Status: http.StatusOK, Body: canned}, true
	}
	fr.mu.Unlock()
	code, _, body = post(t, ts.URL+"/v1/solve", `{"arch":3,"conversations":1,"server_compute_us":570}`)
	if code != http.StatusOK || !bytes.Equal(body, canned) {
		t.Fatalf("cluster-served: %d %q, want the canned bytes", code, body)
	}

	var doc struct {
		Serving struct {
			ClusterServed int64 `json:"cluster_served"`
			Leaders       int64 `json:"leaders"`
		} `json:"serving"`
		Cluster map[string]any `json:"cluster"`
	}
	if err := json.Unmarshal(s.MetricsJSON(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Serving.ClusterServed != 1 || doc.Serving.Leaders != 1 {
		t.Fatalf("cluster_served=%d leaders=%d, want 1/1", doc.Serving.ClusterServed, doc.Serving.Leaders)
	}
	if doc.Cluster == nil || doc.Cluster["fake"] != true {
		t.Fatalf("metrics body missing the router snapshot: %v", doc.Cluster)
	}

	// Experiments are registry reads, never cluster-routed.
	if code, body := get(t, ts.URL+"/v1/experiments/T5.1"); code != http.StatusOK {
		t.Fatalf("experiment: %d %s", code, body)
	}
	for _, spec := range fr.routedSpecs() {
		if spec.Route == "experiment" {
			t.Fatalf("experiment read was cluster-routed: %+v", spec)
		}
	}

	// scope=cluster dispatches to the router's fan-out and merges what it
	// returns: the silent member is reported unreachable, and /metrics
	// carries the peer's body under its member URL.
	for _, path := range []string{"/metrics", "/metrics/history", "/debug/requests", "/debug/health", "/debug/events"} {
		code, body := get(t, ts.URL+path+"?scope=cluster")
		if code != http.StatusOK || fr.lastFanOut() != path || !bytes.Contains(body, []byte(`"unreachable":["http://fake:2"]`)) {
			t.Fatalf("%s scope=cluster: %d %q (fanned out %q)", path, code, body, fr.lastFanOut())
		}
		if path == "/metrics" && !bytes.Contains(body, []byte(`"http://fake:1":{"aggregated":"/metrics"}`)) {
			t.Fatalf("metrics scope=cluster lost the peer body: %s", body)
		}
	}

	// The healthz body echoes the router's membership epoch.
	if code, body := get(t, ts.URL+"/healthz"); code != http.StatusOK || !bytes.Contains(body, []byte(`"epoch":42`)) {
		t.Fatalf("healthz with cluster: %d %s, want epoch 42", code, body)
	}
}

// Held peer bytes answer the fast path wherever the router's owner
// check allows, on /v1/solve and /v1/simulate alike: at a non-owner the
// request is a replica hit, counted as cluster-served, and neither Route
// nor a leader runs. At the key's owner the same bytes fall through:
// Route is consulted, the node computes, and its bytes replace the held
// ones.
func TestFastPathServesHeldPeerBytes(t *testing.T) {
	solveKey, err := SolveKey(2, 1, 1, 1140, false)
	if err != nil {
		t.Fatal(err)
	}
	sim := simulateRequest{solveRequest: solveRequest{Arch: 3, Conversations: 2, ServerComputeUS: 1140}, Seconds: 2, Seed: 7}
	if err := sim.validate(); err != nil {
		t.Fatal(err)
	}
	simKey := string(sim.appendKey(nil))
	held := []byte("{\"held\":true}\n")
	for _, tc := range []struct{ path, body, key string }{
		{"/v1/solve", solveBody, solveKey},
		{"/v1/simulate", `{"arch":3,"conversations":2,"server_compute_us":1140,"seconds":2,"seed":7}`, simKey},
	} {
		for _, owns := range []bool{false, true} {
			fr := &fakeRouter{owns: owns}
			s, ts := testServer(t, Config{Cluster: fr})
			if !s.RespCache().PutReplica(tc.key, held) {
				t.Fatal("peer bytes refused")
			}
			code, _, body := post(t, ts.URL+tc.path, tc.body)
			if code != http.StatusOK {
				t.Fatalf("%s owns=%v: %d %s", tc.path, owns, code, body)
			}
			fr.mu.Lock()
			asked := append([]string(nil), fr.held...)
			fr.mu.Unlock()
			if len(asked) != 1 || asked[0] != tc.key {
				t.Fatalf("%s owns=%v: ServeHeld asked for %q, want once for %q", tc.path, owns, asked, tc.key)
			}
			var doc struct {
				Serving struct {
					ClusterServed int64 `json:"cluster_served"`
					Leaders       int64 `json:"leaders"`
				} `json:"serving"`
				RespCache struct {
					Hits   int64 `json:"hits"`
					Misses int64 `json:"misses"`
				} `json:"resp_cache"`
			}
			if err := json.Unmarshal(s.MetricsJSON(), &doc); err != nil {
				t.Fatal(err)
			}
			rows := debugRequests(t, ts.URL).Requests
			if len(rows) != 1 {
				t.Fatalf("%s owns=%v: %d request rows, want 1", tc.path, owns, len(rows))
			}
			routed := fr.routedSpecs()
			if !owns {
				if !bytes.Equal(body, held) || rows[0].Decision != DecisionReplicaHit || rows[0].Key != tc.key ||
					len(routed) != 0 || doc.Serving.ClusterServed != 1 || doc.Serving.Leaders != 0 ||
					doc.RespCache.Hits != 1 || doc.RespCache.Misses != 0 {
					t.Fatalf("%s non-owner: body %q, row %+v, %d routed, %+v; want the held bytes as a fast-path replica hit",
						tc.path, body, rows[0], len(routed), doc)
				}
				continue
			}
			if bytes.Equal(body, held) || rows[0].Decision != DecisionLocalCompute || len(routed) != 1 ||
				doc.Serving.ClusterServed != 0 || doc.Serving.Leaders != 1 ||
				doc.RespCache.Hits != 0 || doc.RespCache.Misses != 1 {
				t.Fatalf("%s owner: body %q, row %+v, %d routed, %+v; want Route consulted and a local compute",
					tc.path, body, rows[0], len(routed), doc)
			}
			if _, got, _, ok := s.RespCache().get([]byte(tc.key)); !ok || !bytes.Equal(got, body) {
				t.Fatalf("%s owner: cache holds %q, want the computed bytes %q", tc.path, got, body)
			}
		}
	}
}
