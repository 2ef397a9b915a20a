package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/service"
)

// namedCluster builds a cluster whose serving cores carry per-node
// names ("n0", "n1", ...) so request IDs and merged traces are
// attributable in assertions.
func namedCluster(t *testing.T, n int, mutate func(i int, ccfg *Config, scfg *service.Config)) *testCluster {
	t.Helper()
	return newTestCluster(t, n, func(i int, ccfg *Config, scfg *service.Config) {
		scfg.NodeName = fmt.Sprintf("n%d", i)
		if mutate != nil {
			mutate(i, ccfg, scfg)
		}
	})
}

type debugRequestsDoc struct {
	Requests []struct {
		ID       string `json:"id"`
		Route    string `json:"route"`
		Decision string `json:"decision"`
		Status   int    `json:"status"`
		Node     string `json:"node"`
		// float64: the merged view re-encodes members' rows through a
		// generic JSON tree, so large timestamps render in e-notation.
		UnixMS float64 `json:"unix_ms"`
	} `json:"requests"`
	Members     []string `json:"members"`
	Unreachable []string `json:"unreachable"`
}

func fetchRequests(t *testing.T, base, query string) debugRequestsDoc {
	t.Helper()
	resp, err := http.Get(base + "/debug/requests" + query)
	if err != nil {
		t.Fatalf("GET /debug/requests%s: %v", query, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/requests%s: %d: %s", query, resp.StatusCode, b)
	}
	var doc debugRequestsDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("/debug/requests%s not JSON: %v\n%s", query, err, b)
	}
	return doc
}

// One logical request keeps one ID across every hop: the follower mints
// it, the forward carries it, and both nodes' rings (and the merged
// cluster view) record the same ID with their own routing decision.
func TestClusterRequestIDStability(t *testing.T) {
	tc := namedCluster(t, 3, func(_ int, ccfg *Config, _ *service.Config) {
		ccfg.Replicas = -1 // keep replica pushes out: rings stay still
	})
	var p point
	var owner, follower int
	for _, cand := range allPoints() {
		oi := tc.index(t, tc.nodes[0].OwnerOf(cand.key(t)))
		p, owner, follower = cand, oi, (oi+1)%3
		break
	}
	mustSolve(t, tc.urls[follower], p.body(), "")
	wantID := fmt.Sprintf("n%d-1", follower)

	fdoc := fetchRequests(t, tc.urls[follower], "")
	if len(fdoc.Requests) != 1 {
		t.Fatalf("follower ring has %d rows, want 1", len(fdoc.Requests))
	}
	if r := fdoc.Requests[0]; r.ID != wantID || r.Decision != service.DecisionForwarded {
		t.Fatalf("follower row = %+v, want id %s decision %s", r, wantID, service.DecisionForwarded)
	}
	odoc := fetchRequests(t, tc.urls[owner], "")
	if len(odoc.Requests) != 1 {
		t.Fatalf("owner ring has %d rows, want 1", len(odoc.Requests))
	}
	if r := odoc.Requests[0]; r.ID != wantID || r.Decision != service.DecisionLocalCompute {
		t.Fatalf("owner row = %+v, want the inherited id %s computed locally", r, wantID)
	}

	// Hop-capped path: a forged spent hop budget for an unowned key the
	// follower holds no bytes for computes locally under a locally
	// minted ID, classified as such.
	capped := freshPoint(t, tc.nodes[follower], func(o string) bool { return o != tc.urls[follower] })
	mustSolve(t, tc.urls[follower], capped.body(), "1")
	fdoc = fetchRequests(t, tc.urls[follower], "")
	last := fdoc.Requests[len(fdoc.Requests)-1]
	if last.ID != fmt.Sprintf("n%d-2", follower) || last.Decision != service.DecisionHopCappedLocal {
		t.Fatalf("hop-capped row = %+v, want the next local id and decision %s",
			last, service.DecisionHopCappedLocal)
	}

	// The merged cluster view carries both hops of the forwarded request,
	// each tagged with its node, and is deterministic across fetches
	// (the fan-out's own GETs are observability routes, never recorded).
	cdoc := fetchRequests(t, tc.urls[follower], "?scope=cluster")
	byNode := map[string]int{}
	for _, r := range cdoc.Requests {
		if r.Node == "" {
			t.Fatalf("merged row missing node tag: %+v", r)
		}
		if r.ID == wantID {
			byNode[r.Node]++
		}
	}
	if len(byNode) != 2 {
		t.Fatalf("merged view records id %s on %d nodes, want both hops: %+v", wantID, len(byNode), cdoc.Requests)
	}
	resp1, err := http.Get(tc.urls[follower] + "/debug/requests?scope=cluster")
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := io.ReadAll(resp1.Body)
	resp1.Body.Close()
	resp2, err := http.Get(tc.urls[follower] + "/debug/requests?scope=cluster")
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if !bytes.Equal(b1, b2) {
		t.Fatalf("merged /debug/requests not deterministic:\n%s\nvs\n%s", b1, b2)
	}
}

// The history and request aggregations report an unreachable member and
// still merge every reachable node's entries.
func TestClusterHistoryAggregateUnreachableMember(t *testing.T) {
	tc := namedCluster(t, 3, func(_ int, ccfg *Config, _ *service.Config) {
		ccfg.Replicas = -1
	})
	for i, srv := range tc.srvs {
		srv.SampleMetrics(time.UnixMilli(int64(1000 + i)))
	}
	tc.nodes[0].AddMember("http://127.0.0.1:1")

	resp, err := http.Get(tc.urls[0] + "/metrics/history?scope=cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	var hist struct {
		Points      []map[string]any `json:"points"`
		Unreachable []string         `json:"unreachable"`
	}
	if err := json.Unmarshal(b, &hist); err != nil {
		t.Fatalf("history json: %v\n%s", err, b)
	}
	if len(hist.Unreachable) != 1 || hist.Unreachable[0] != "http://127.0.0.1:1" {
		t.Fatalf("unreachable = %v, want the dead member", hist.Unreachable)
	}
	if len(hist.Points) != 3 {
		t.Fatalf("merged history has %d points, want the 3 reachable samples", len(hist.Points))
	}
	cdoc := fetchRequests(t, tc.urls[0], "?scope=cluster")
	if len(cdoc.Unreachable) != 1 {
		t.Fatalf("/debug/requests unreachable = %v, want the dead member", cdoc.Unreachable)
	}
}

// A member that answers non-200 is unreachable, not merged: its error
// body — even one shaped like a local body — never lands under nodes
// or in a merged timeline.
func TestClusterFanOutNon200MemberUnreachable(t *testing.T) {
	tc := namedCluster(t, 2, func(_ int, ccfg *Config, _ *service.Config) {
		ccfg.Replicas = -1
	})
	boom := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		w.Write([]byte(`{"error":"boom","events":[{"unix_ms":1,"seq":1,"type":"bogus"}]}`))
	}))
	t.Cleanup(boom.Close)
	tc.nodes[0].AddMember(boom.URL)

	get := func(path string, into any) {
		t.Helper()
		resp, err := http.Get(tc.urls[0] + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if err := json.Unmarshal(b, into); err != nil {
			t.Fatalf("%s: %v\n%s", path, err, b)
		}
	}
	var metrics struct {
		Nodes       map[string]any `json:"nodes"`
		Unreachable []string       `json:"unreachable"`
	}
	get("/metrics?scope=cluster", &metrics)
	if len(metrics.Unreachable) != 1 || metrics.Unreachable[0] != boom.URL {
		t.Fatalf("metrics unreachable = %v, want the 500 member", metrics.Unreachable)
	}
	if _, ok := metrics.Nodes[boom.URL]; ok || len(metrics.Nodes) != 2 {
		t.Fatalf("metrics nodes = %v, want the two healthy members only", metrics.Nodes)
	}
	var events struct {
		Events []struct {
			Node string `json:"node"`
		} `json:"events"`
		Unreachable []string `json:"unreachable"`
	}
	get("/debug/events?scope=cluster", &events)
	if len(events.Unreachable) != 1 || events.Unreachable[0] != boom.URL {
		t.Fatalf("events unreachable = %v, want the 500 member", events.Unreachable)
	}
	for _, e := range events.Events {
		if e.Node == boom.URL {
			t.Fatalf("merged events carry the 500 member's body: %+v", events.Events)
		}
	}
}

// A traced, forwarded request produces ONE Chrome trace on the tracing
// node whose lanes cover both nodes: the follower's own spans plus the
// owner's remote spans merged as a second process.
func TestClusterMergedTraceTwoNodes(t *testing.T) {
	dirs := make([]string, 3)
	tc := namedCluster(t, 3, func(i int, ccfg *Config, scfg *service.Config) {
		ccfg.Replicas = -1
		dirs[i] = t.TempDir()
		scfg.TraceDir = dirs[i]
		scfg.TraceEvery = 1
	})
	var p point
	var owner, follower int
	for _, cand := range allPoints() {
		oi := tc.index(t, tc.nodes[0].OwnerOf(cand.key(t)))
		p, owner, follower = cand, oi, (oi+1)%3
		break
	}
	mustSolve(t, tc.urls[follower], p.body(), "")

	path := filepath.Join(dirs[follower], "req-1-solve.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("follower trace not written: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace not JSON: %v", err)
	}
	procs := map[int]string{}
	spanPids := map[int]bool{}
	spans := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			name, _ := ev.Args["name"].(string)
			procs[ev.Pid] = name
		}
		if ev.Ph == "X" || ev.Ph == "i" {
			spanPids[ev.Pid] = true
			spans[ev.Name] = true
		}
	}
	wantFollower, wantOwner := fmt.Sprintf("n%d", follower), fmt.Sprintf("n%d", owner)
	names := map[string]bool{}
	for _, n := range procs {
		names[n] = true
	}
	if !names[wantFollower] || !names[wantOwner] {
		t.Fatalf("trace process lanes = %v, want both %s and %s", procs, wantFollower, wantOwner)
	}
	if len(spanPids) < 2 {
		t.Fatalf("trace spans cover %d pids, want >= 2 (local + merged remote)", len(spanPids))
	}
	// The merged timeline must cover the full hop: the follower's decode
	// and peer RTT plus the owner's serve-side spans.
	for _, want := range []string{"decode", "peer.rtt", "solve", "admission.wait"} {
		if !spans[want] {
			t.Fatalf("merged trace missing span %q; have %v", want, spans)
		}
	}
	// The owner served a remote-traced hop: no trace file of its own.
	if ents, _ := os.ReadDir(dirs[owner]); len(ents) != 0 {
		t.Fatalf("owner wrote %d trace files, want 0 (its spans ride the response)", len(ents))
	}
}
