package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
)

// The in-process cluster harness: N real ipcd serving cores, each
// wrapped in its node's cluster handler, on N httptest listeners. The
// listeners exist before the nodes (their URLs are the node
// identities), so each listener serves through a swappable handler
// installed once the node is built.

type swapHandler struct{ h atomic.Value }

// handlerBox keeps the stored concrete type constant so handlers of
// different dynamic types (a node's mux, the abort handler) can be
// swapped through one atomic.Value.
type handlerBox struct{ h http.Handler }

func (s *swapHandler) set(h http.Handler) { s.h.Store(handlerBox{h}) }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	box, _ := s.h.Load().(handlerBox)
	h := box.h
	if h == nil {
		http.Error(w, "node not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

type testCluster struct {
	urls     []string
	nodes    []*Node
	srvs     []*service.Server
	handlers []*swapHandler
}

// abortHandler simulates a dead peer: it aborts every connection at the
// transport level, so probes and forwards see an error, not a status.
var abortHandler = http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
	panic(http.ErrAbortHandler)
})

// kill makes node i's listener drop connections; revive restores it.
func (tc *testCluster) kill(i int)   { tc.handlers[i].set(abortHandler) }
func (tc *testCluster) revive(i int) { tc.handlers[i].set(tc.nodes[i].Handler()) }

// newTestCluster builds an n-node cluster with full static peer lists.
// mutate, when non-nil, adjusts each node's configs before construction.
func newTestCluster(t *testing.T, n int, mutate func(i int, ccfg *Config, scfg *service.Config)) *testCluster {
	t.Helper()
	handlers := make([]*swapHandler, n)
	urls := make([]string, n)
	for i := range handlers {
		handlers[i] = &swapHandler{}
		ts := httptest.NewServer(handlers[i])
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	tc := &testCluster{urls: urls, handlers: handlers}
	for i := 0; i < n; i++ {
		ccfg := Config{Self: urls[i], Peers: urls}
		scfg := service.Config{}
		if mutate != nil {
			mutate(i, &ccfg, &scfg)
		}
		node, err := New(ccfg)
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		scfg.Cluster = node
		srv := service.New(scfg)
		node.Bind(srv)
		handlers[i].set(node.Handler())
		tc.nodes = append(tc.nodes, node)
		tc.srvs = append(tc.srvs, srv)
	}
	return tc
}

// index finds a member URL's position in the harness.
func (tc *testCluster) index(t *testing.T, url string) int {
	t.Helper()
	for i, u := range tc.urls {
		if u == url {
			return i
		}
	}
	t.Fatalf("url %q is not a harness member of %v", url, tc.urls)
	return -1
}

// newReferenceServer is a standalone, cluster-free ipcd: the byte-level
// ground truth every routing path must reproduce.
func newReferenceServer(t *testing.T) string {
	t.Helper()
	ts := httptest.NewServer(service.New(service.Config{}).Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// point is one solve workload point of the harness's request set.
type point struct{ arch, conv, x int }

func (p point) body() string {
	return fmt.Sprintf(`{"arch":%d,"conversations":%d,"server_compute_us":%d}`, p.arch, p.conv, p.x)
}

func (p point) key(t *testing.T) string {
	t.Helper()
	k, err := service.SolveKey(p.arch, p.conv, 1, float64(p.x), false)
	if err != nil {
		t.Fatalf("SolveKey(%+v): %v", p, err)
	}
	return k
}

// freshPoint is a point outside allPoints — so no node has served or
// been pushed it — whose key's owner, as n's ring sees it, satisfies
// want.
func freshPoint(t *testing.T, n *Node, want func(owner string) bool) point {
	t.Helper()
	for x := 1; x < 570; x++ {
		if p := (point{1, 1, x}); want(n.OwnerOf(p.key(t))) {
			return p
		}
	}
	t.Fatal("no fresh point has a wanted owner")
	return point{}
}

func allPoints() []point {
	var pts []point
	for arch := 1; arch <= 4; arch++ {
		for conv := 1; conv <= 2; conv++ {
			for _, x := range []int{0, 570, 1140, 2850} {
				pts = append(pts, point{arch, conv, x})
			}
		}
	}
	return pts
}

// postSolve issues one solve request, optionally with a forged hop
// header. Safe to call off the test goroutine.
func postSolve(base, body, hops string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, base+"/v1/solve", strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if hops != "" {
		req.Header.Set(service.HopsHeader, hops)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func mustSolve(t *testing.T, base, body, hops string) []byte {
	t.Helper()
	st, b, err := postSolve(base, body, hops)
	if err != nil {
		t.Fatalf("POST %s: %v", base, err)
	}
	if st != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", base, st, b)
	}
	return b
}

// waitFor polls cond until it holds or the deadline lapses.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// servingCounters pulls the coalescing-relevant counters out of one
// server's metrics body.
func servingCounters(t *testing.T, srv *service.Server) (leaders, coalesced, clusterServed int64) {
	t.Helper()
	var doc struct {
		Serving struct {
			Leaders       int64 `json:"leaders"`
			Coalesced     int64 `json:"coalesced"`
			ClusterServed int64 `json:"cluster_served"`
		} `json:"serving"`
	}
	if err := json.Unmarshal(srv.MetricsJSON(), &doc); err != nil {
		t.Fatalf("metrics json: %v", err)
	}
	return doc.Serving.Leaders, doc.Serving.Coalesced, doc.Serving.ClusterServed
}

// Every routing path must produce the reference server's exact bytes:
// local ownership, a forwarded miss, and a replica-cache hit.
func TestClusterByteIdentityEveryRoutingPath(t *testing.T) {
	ref := newReferenceServer(t)
	tc := newTestCluster(t, 3, nil)

	// Blanket identity first: every point through every node.
	for _, p := range allPoints() {
		want := mustSolve(t, ref, p.body(), "")
		for i, u := range tc.urls {
			if got := mustSolve(t, u, p.body(), ""); !bytes.Equal(got, want) {
				t.Fatalf("point %+v via node %d: body diverges from reference\n got: %s\nwant: %s", p, i, got, want)
			}
		}
	}

	// Now pin each specific path on a fresh cluster with clean counters.
	tc2 := newTestCluster(t, 3, nil)
	var p point
	var owner, replica, third int
	for _, cand := range allPoints() {
		reps := tc2.nodes[0].ReplicasOf(cand.key(t))
		if len(reps) != 2 {
			t.Fatalf("ReplicasOf(%+v) = %v, want owner+1 replica", cand, reps)
		}
		p, owner, replica = cand, tc2.index(t, reps[0]), tc2.index(t, reps[1])
		third = 3 - owner - replica
		break
	}
	want := mustSolve(t, ref, p.body(), "")

	// Forwarded miss: a non-owner, non-replica node forwards to the owner.
	if got := mustSolve(t, tc2.urls[third], p.body(), ""); !bytes.Equal(got, want) {
		t.Fatalf("forwarded response diverges:\n got: %s\nwant: %s", got, want)
	}
	if st := tc2.nodes[third].Stats(); st.ForwardServed != 1 {
		t.Fatalf("forwarder stats = %+v, want exactly one served forward", st)
	}
	leaders, _, _ := servingCounters(t, tc2.srvs[owner])
	if leaders != 1 {
		t.Fatalf("owner leaders = %d, want 1 (the forwarded compute)", leaders)
	}

	// Replica hit: the owner's Offer pushed the entry to the next ring
	// successor; once it lands, the replica answers from its cache.
	waitFor(t, "replica push to land", func() bool {
		return tc2.nodes[replica].Stats().ReplicaStores >= 1
	})
	if got := mustSolve(t, tc2.urls[replica], p.body(), ""); !bytes.Equal(got, want) {
		t.Fatalf("replica-cache response diverges:\n got: %s\nwant: %s", got, want)
	}
	if st := tc2.nodes[replica].Stats(); st.ReplicaHits != 1 || st.ForwardsOut != 0 {
		t.Fatalf("replica stats = %+v, want one cache hit and no forwards", st)
	}

	// Local hit: the owner answers a direct request itself.
	if got := mustSolve(t, tc2.urls[owner], p.body(), ""); !bytes.Equal(got, want) {
		t.Fatalf("owner-local response diverges:\n got: %s\nwant: %s", got, want)
	}
	if st := tc2.nodes[owner].Stats(); st.ForwardsOut != 0 {
		t.Fatalf("owner stats = %+v, want no forwards for its own key", st)
	}
}

// M concurrent requests for one point across several nodes must reach
// exactly ONE upstream computation: followers coalesce locally on their
// node's forward, and forwards coalesce in the owner's flight group.
func TestClusterCrossNodeCoalescing(t *testing.T) {
	tc := newTestCluster(t, 3, func(_ int, ccfg *Config, _ *service.Config) {
		ccfg.Replicas = -1 // keep the replica path out of this test
	})
	p := allPoints()[0]
	key := p.key(t)
	oi := tc.index(t, tc.nodes[0].OwnerOf(key))
	a, b := (oi+1)%3, (oi+2)%3

	admitted := make(chan struct{}, 1)
	release := make(chan struct{})
	tc.srvs[oi].SetAdmittedTestHook(func(k string) {
		if k == key {
			admitted <- struct{}{}
			<-release
		}
	})

	type reply struct {
		status int
		body   []byte
		err    error
	}
	replies := make(chan reply, 6)
	var wg sync.WaitGroup
	post := func(node int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, body, err := postSolve(tc.urls[node], p.body(), "")
			replies <- reply{st, body, err}
		}()
	}

	// Stage the pile-up: one request through node a opens the owner's
	// flight (and blocks in the hook), then followers stack up on both
	// non-owner nodes while the owner computes.
	post(a)
	select {
	case <-admitted:
	case <-time.After(10 * time.Second):
		t.Fatal("owner never admitted the forwarded compute")
	}
	post(a)
	post(a)
	waitFor(t, "two followers on node a", func() bool { return tc.srvs[a].FlightWaiters(key) == 2 })
	post(b)
	waitFor(t, "node b's forward to join the owner's flight", func() bool { return tc.srvs[oi].FlightWaiters(key) == 1 })
	post(b)
	post(b)
	waitFor(t, "two followers on node b", func() bool { return tc.srvs[b].FlightWaiters(key) == 2 })
	close(release)
	wg.Wait()
	close(replies)

	var bodies [][]byte
	for r := range replies {
		if r.err != nil || r.status != http.StatusOK {
			t.Fatalf("concurrent solve failed: status %d err %v body %s", r.status, r.err, r.body)
		}
		bodies = append(bodies, r.body)
	}
	if len(bodies) != 6 {
		t.Fatalf("got %d replies, want 6", len(bodies))
	}
	for _, got := range bodies[1:] {
		if !bytes.Equal(got, bodies[0]) {
			t.Fatalf("concurrent responses diverge:\n%s\nvs\n%s", bodies[0], got)
		}
	}

	// Exactly one upstream computation for six requests: the owner led
	// once (for node a's forward), coalesced node b's forward, and never
	// consumed a cluster answer itself; each follower node answered one
	// forwarded result and coalesced its two local followers.
	if leaders, coalesced, served := servingCounters(t, tc.srvs[oi]); leaders != 1 || coalesced != 1 || served != 0 {
		t.Fatalf("owner counters leaders=%d coalesced=%d cluster_served=%d, want 1/1/0", leaders, coalesced, served)
	}
	for _, ni := range []int{a, b} {
		if leaders, coalesced, served := servingCounters(t, tc.srvs[ni]); leaders != 0 || coalesced != 2 || served != 1 {
			t.Fatalf("follower node %d counters leaders=%d coalesced=%d cluster_served=%d, want 0/2/1", ni, leaders, coalesced, served)
		}
	}
	if st := tc.nodes[oi].Stats(); st.ForwardsOut != 0 {
		t.Fatalf("owner forwarded its own key: %+v", st)
	}
}

// A node joining announces itself to the fleet and takes over only its
// own slice; a node leaving hands its slots back. Bytes stay identical
// throughout.
func TestClusterJoinLeaveRebalance(t *testing.T) {
	ref := newReferenceServer(t)

	handlers := make([]*swapHandler, 3)
	urls := make([]string, 3)
	for i := range handlers {
		handlers[i] = &swapHandler{}
		ts := httptest.NewServer(handlers[i])
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	// Nodes 0 and 1 start as a two-member fleet; node 2 only knows the
	// others from its static list and must announce itself.
	build := func(i int, peers []string) (*Node, *service.Server) {
		node, err := New(Config{Self: urls[i], Peers: peers})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		srv := service.New(service.Config{Cluster: node})
		node.Bind(srv)
		handlers[i].set(node.Handler())
		return node, srv
	}
	n0, _ := build(0, urls[:2])
	n1, _ := build(1, urls[:2])
	n2, srv2 := build(2, urls)

	pts := allPoints()[:8]
	want := map[point][]byte{}
	for _, p := range pts {
		want[p] = mustSolve(t, ref, p.body(), "")
		for _, u := range urls[:2] {
			if got := mustSolve(t, u, p.body(), ""); !bytes.Equal(got, want[p]) {
				t.Fatalf("pre-join response diverges for %+v via %s", p, u)
			}
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := n2.Join(ctx); err != nil {
		t.Fatalf("join: %v", err)
	}
	for i, n := range []*Node{n0, n1, n2} {
		if got := n.Members(); len(got) != 3 {
			t.Fatalf("node %d members after join = %v, want all 3", i, got)
		}
	}
	// Owners agree across the fleet, and the joiner owns a real share.
	owned := 0
	for _, p := range allPoints() {
		k := p.key(t)
		o := n0.OwnerOf(k)
		if n1.OwnerOf(k) != o || n2.OwnerOf(k) != o {
			t.Fatalf("owner disagreement for %+v: %q/%q/%q", p, o, n1.OwnerOf(k), n2.OwnerOf(k))
		}
		if o == urls[2] {
			owned++
		}
	}
	if owned == 0 {
		t.Fatal("joiner owns no keys of the workload set")
	}
	for _, p := range pts {
		for i, u := range urls {
			if got := mustSolve(t, u, p.body(), ""); !bytes.Equal(got, want[p]) {
				t.Fatalf("post-join response diverges for %+v via node %d", p, i)
			}
		}
	}

	// Leave: node 2 removes itself from its own ring FIRST, so requests
	// that still reach it forward to the surviving owner. The deserted
	// key is one the leaver never served: bytes it held would answer
	// without the hop.
	deserted := freshPoint(t, n2, func(o string) bool { return o == urls[2] })
	if err := n2.Leave(ctx); err != nil {
		t.Fatalf("leave: %v", err)
	}
	for i, n := range []*Node{n0, n1, n2} {
		if got := n.Members(); len(got) != 2 {
			t.Fatalf("node %d members after leave = %v, want 2", i, got)
		}
	}
	before := n2.Stats().ForwardServed
	leaders, _, _ := servingCounters(t, srv2)
	got := mustSolve(t, urls[2], deserted.body(), "")
	if wb := mustSolve(t, ref, deserted.body(), ""); !bytes.Equal(got, wb) {
		t.Fatalf("post-leave handoff response diverges:\n got: %s\nwant: %s", got, wb)
	}
	if after := n2.Stats().ForwardServed; after != before+1 {
		t.Fatalf("leaver served its deserted key locally (forward_served %d -> %d)", before, after)
	}
	if after, _, _ := servingCounters(t, srv2); after != leaders {
		t.Fatalf("leaver computed its deserted key (leaders %d -> %d)", leaders, after)
	}
}

// Drain handoff under concurrent load: while clients hammer the two
// surviving nodes, the third leaves the ring and drains. Every response
// stays 200 with reference bytes — the handoff is invisible at the
// byte level.
func TestClusterDrainHandoffUnderLoad(t *testing.T) {
	ref := newReferenceServer(t)
	tc := newTestCluster(t, 3, nil)
	pts := allPoints()[:6]
	want := map[point][]byte{}
	for _, p := range pts {
		want[p] = mustSolve(t, ref, p.body(), "")
	}
	victim := tc.index(t, tc.nodes[0].OwnerOf(pts[0].key(t)))
	a, b := (victim+1)%3, (victim+2)%3

	type failure struct {
		p      point
		status int
		err    error
		body   []byte
	}
	failures := make(chan failure, 256)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			targets := []string{tc.urls[a], tc.urls[b]}
			for i := 0; i < 40; i++ {
				p := pts[(w+i)%len(pts)]
				st, body, err := postSolve(targets[i%2], p.body(), "")
				if err != nil || st != http.StatusOK || !bytes.Equal(body, want[p]) {
					select {
					case failures <- failure{p, st, err, body}:
					default:
					}
				}
			}
		}(w)
	}

	time.Sleep(5 * time.Millisecond) // let the hammering overlap the handoff
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := tc.nodes[victim].Leave(ctx); err != nil {
		t.Fatalf("leave: %v", err)
	}
	tc.srvs[victim].BeginDrain()
	wg.Wait()
	close(failures)
	for f := range failures {
		t.Errorf("mid-drain request failed: point %+v status %d err %v body %s", f.p, f.status, f.err, f.body)
	}

	// The drained node now refuses compute outright...
	st, body, err := postSolve(tc.urls[victim], pts[0].body(), "")
	if err != nil || st != http.StatusServiceUnavailable {
		t.Fatalf("drained node answered %d (err %v): %s", st, err, body)
	}
	// ...while the survivors, whose rings no longer contain it, still
	// produce reference bytes.
	for _, p := range pts {
		for _, ni := range []int{a, b} {
			if got := mustSolve(t, tc.urls[ni], p.body(), ""); !bytes.Equal(got, want[p]) {
				t.Fatalf("post-drain response diverges for %+v via node %d", p, ni)
			}
		}
	}
	if err := tc.srvs[victim].Drain(ctx); err != nil {
		t.Fatalf("drain never went idle: %v", err)
	}
}

// A forged or exhausted hop budget must compute locally (or refuse),
// never forward — the loop-prevention contract.
func TestClusterHopBudget(t *testing.T) {
	ref := newReferenceServer(t)
	tc := newTestCluster(t, 3, nil)
	var p point
	var nonOwner int
	for _, cand := range allPoints() {
		oi := tc.index(t, tc.nodes[0].OwnerOf(cand.key(t)))
		p, nonOwner = cand, (oi+1)%3
		break
	}
	want := mustSolve(t, ref, p.body(), "")

	// Hop budget spent: a non-owner computes locally instead of forwarding.
	if got := mustSolve(t, tc.urls[nonOwner], p.body(), "1"); !bytes.Equal(got, want) {
		t.Fatalf("hop-capped local compute diverges:\n got: %s\nwant: %s", got, want)
	}
	if st := tc.nodes[nonOwner].Stats(); st.ForwardsOut != 0 || st.HopCapLocal != 1 {
		t.Fatalf("stats = %+v, want zero forwards and one hop-capped local compute", st)
	}

	// At the limit: refused with 508, no compute.
	st508, body, err := postSolve(tc.urls[nonOwner], p.body(), "2")
	if err != nil || st508 != http.StatusLoopDetected {
		t.Fatalf("hops=2 answered %d (err %v): %s", st508, err, body)
	}
	// Malformed header: a plain 400.
	st400, body, err := postSolve(tc.urls[nonOwner], p.body(), "banana")
	if err != nil || st400 != http.StatusBadRequest {
		t.Fatalf("malformed hops answered %d (err %v): %s", st400, err, body)
	}
}

// The aggregated observability views merge every member
// deterministically and survive an unreachable member.
func TestClusterAggregatedViews(t *testing.T) {
	tc := newTestCluster(t, 3, func(_ int, ccfg *Config, _ *service.Config) {
		ccfg.Replicas = -1 // no async replica pushes: snapshots stay still
	})
	for i := range tc.urls {
		mustSolve(t, tc.urls[i], allPoints()[i].body(), "")
	}

	fetch := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(tc.urls[0] + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d: %s", path, resp.StatusCode, b)
		}
		return b
	}

	raw := fetch("/metrics?scope=cluster")
	var doc struct {
		Members     []string                  `json:"members"`
		Self        string                    `json:"self"`
		Nodes       map[string]map[string]any `json:"nodes"`
		Totals      map[string]float64        `json:"totals"`
		Unreachable []string                  `json:"unreachable"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("aggregate json: %v", err)
	}
	if doc.Self != tc.urls[0] || len(doc.Members) != 3 || len(doc.Unreachable) != 0 {
		t.Fatalf("aggregate shape: self=%q members=%v unreachable=%v", doc.Self, doc.Members, doc.Unreachable)
	}
	if !sortedStrings(doc.Members) {
		t.Fatalf("members not sorted: %v", doc.Members)
	}
	var wantTotal float64
	for m, nd := range doc.Nodes {
		serving, ok := nd["serving"].(map[string]any)
		if !ok {
			t.Fatalf("node %s has no serving section", m)
		}
		v, _ := serving["requests_total"].(float64)
		wantTotal += v
	}
	if doc.Totals["requests_total"] != wantTotal || wantTotal < 3 {
		t.Fatalf("totals.requests_total = %v, want the per-node sum %v (>= 3)", doc.Totals["requests_total"], wantTotal)
	}
	// History: interleaved sample times across nodes come back merged in
	// (unix_ms, node) order, each point tagged with its node.
	for i, srv := range tc.srvs {
		srv.SampleMetrics(time.UnixMilli(int64(1000 + i)))
		srv.SampleMetrics(time.UnixMilli(int64(2000 + i)))
	}
	histRaw := fetch("/metrics/history?scope=cluster")
	// Samples unchanged => the merge is byte-identical. (The metrics
	// counters can't make this promise: the fan-out's own GETs are
	// requests the members count.)
	if again := fetch("/metrics/history?scope=cluster"); !bytes.Equal(histRaw, again) {
		t.Fatalf("history aggregation not deterministic:\n%s\nvs\n%s", histRaw, again)
	}
	var hist struct {
		Members []string         `json:"members"`
		Points  []map[string]any `json:"points"`
	}
	if err := json.Unmarshal(histRaw, &hist); err != nil {
		t.Fatalf("history json: %v", err)
	}
	if len(hist.Points) != 6 {
		t.Fatalf("merged history has %d points, want 6", len(hist.Points))
	}
	for i, p := range hist.Points {
		node, _ := p["node"].(string)
		if node == "" {
			t.Fatalf("point %d missing node tag: %v", i, p)
		}
		if i == 0 {
			continue
		}
		prev, cur := hist.Points[i-1], p
		pt, _ := prev["unix_ms"].(float64)
		ct, _ := cur["unix_ms"].(float64)
		pn, _ := prev["node"].(string)
		if pt > ct || (pt == ct && pn > node) {
			t.Fatalf("history out of (unix_ms, node) order at %d: (%v,%s) then (%v,%s)", i, pt, pn, ct, node)
		}
	}

	// An unreachable member is reported, not fatal.
	tc.nodes[0].AddMember("http://127.0.0.1:1")
	var doc2 struct {
		Unreachable []string `json:"unreachable"`
	}
	if err := json.Unmarshal(fetch("/metrics?scope=cluster"), &doc2); err != nil {
		t.Fatalf("aggregate json with dead member: %v", err)
	}
	if len(doc2.Unreachable) != 1 || doc2.Unreachable[0] != "http://127.0.0.1:1" {
		t.Fatalf("unreachable = %v, want the dead member", doc2.Unreachable)
	}
}

func sortedStrings(s []string) bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] > s[i] {
			return false
		}
	}
	return true
}

// The control plane itself: membership introspection and replicate
// validation.
func TestClusterControlEndpoints(t *testing.T) {
	tc := newTestCluster(t, 3, nil)

	resp, err := http.Get(tc.urls[1] + "/cluster/v1/members")
	if err != nil {
		t.Fatalf("members: %v", err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var mem struct {
		Self    string   `json:"self"`
		Epoch   float64  `json:"epoch"`
		Members []string `json:"members"`
	}
	if err := json.Unmarshal(b, &mem); err != nil {
		t.Fatalf("members json: %v (%s)", err, b)
	}
	if mem.Self != tc.urls[1] || len(mem.Members) != 3 {
		t.Fatalf("members body = %s", b)
	}

	for _, bad := range []string{`{}`, `{"key":""}`, `{"key":"k"}`, `not json`, `{"key":"k","body":"b","extra":1}`} {
		resp, err := http.Post(tc.urls[0]+"/cluster/v1/replicate", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatalf("replicate %q: %v", bad, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("replicate %q answered %d, want 400", bad, resp.StatusCode)
		}
	}
	// A key whose replica set includes node 0: only such a push is stored.
	pushKey := ""
	for i := 1; pushKey == ""; i++ {
		if k := fmt.Sprintf("k%d", i); slices.Contains(tc.nodes[0].ReplicasOf(k), tc.urls[0]) {
			pushKey = k
		}
	}
	resp, err = http.Post(tc.urls[0]+"/cluster/v1/replicate", "application/json",
		strings.NewReader(`{"key":"`+pushKey+`","body":"{\"x\":1}"}`))
	if err != nil {
		t.Fatalf("replicate: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid replicate answered %d", resp.StatusCode)
	}
	if st, rc := tc.nodes[0].Stats(), tc.srvs[0].RespCache().Stats(); st.ReplicaStores != 1 || rc.Entries != 1 {
		t.Fatalf("stats after replicate = %+v, resp_cache %+v", st, rc)
	}

	for _, bad := range []string{`{}`, `{"node":""}`, `junk`} {
		resp, err := http.Post(tc.urls[0]+"/cluster/v1/join", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatalf("join %q: %v", bad, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("join %q answered %d, want 400", bad, resp.StatusCode)
		}
	}
}

// Route serves held peer bytes at any non-owner, so the push endpoint
// is where the replica set is enforced: a push to a node off the key's
// replica set is refused, and that node still forwards the key.
func TestClusterReplicateOffReplicaSetRefused(t *testing.T) {
	ref := newReferenceServer(t)
	tc := newTestCluster(t, 3, nil)
	p := allPoints()[0]
	key := p.key(t)
	reps := tc.nodes[0].ReplicasOf(key)
	outsider := 3 - tc.index(t, reps[0]) - tc.index(t, reps[1])

	push, err := json.Marshal(map[string]string{"key": key, "body": "{\"bogus\":true}\n"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(tc.urls[outsider]+"/cluster/v1/replicate", "application/json", bytes.NewReader(push))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(b, []byte(`"stored":false`)) {
		t.Fatalf("push off the replica set answered %d %s, want stored false", resp.StatusCode, b)
	}
	if st, rc := tc.nodes[outsider].Stats(), tc.srvs[outsider].RespCache().Stats(); st.ReplicaStores != 0 || rc.Entries != 0 {
		t.Fatalf("outsider stats after the push = %+v, resp_cache %+v, want nothing stored", st, rc)
	}

	want := mustSolve(t, ref, p.body(), "")
	if got := mustSolve(t, tc.urls[outsider], p.body(), ""); !bytes.Equal(got, want) {
		t.Fatalf("outsider's answer diverges from reference:\n got: %s\nwant: %s", got, want)
	}
	if st := tc.nodes[outsider].Stats(); st.ForwardServed != 1 || st.ReplicaHits != 0 {
		t.Fatalf("outsider stats = %+v, want one served forward and no replica hit", st)
	}
}

// A forwarding non-owner keeps the owner's answer: a repeat at a node
// that is neither the key's owner nor its replica costs no hop.
func TestClusterForwardedAnswerServesRepeat(t *testing.T) {
	ref := newReferenceServer(t)
	tc := newTestCluster(t, 3, nil)
	p := allPoints()[0]
	reps := tc.nodes[0].ReplicasOf(p.key(t))
	third := 3 - tc.index(t, reps[0]) - tc.index(t, reps[1])
	want := mustSolve(t, ref, p.body(), "")

	for i := 0; i < 2; i++ {
		if got := mustSolve(t, tc.urls[third], p.body(), ""); !bytes.Equal(got, want) {
			t.Fatalf("solve %d via the third node diverges:\n got: %s\nwant: %s", i, got, want)
		}
	}
	if st := tc.nodes[third].Stats(); st.ForwardsOut != 1 || st.ReplicaHits != 1 {
		t.Fatalf("third node stats = %+v, want one forward, then one replica hit", st)
	}
	if leaders, _, _ := servingCounters(t, tc.srvs[third]); leaders != 0 {
		t.Fatalf("third node leaders = %d, want 0 (it never computes)", leaders)
	}
	rows := fetchRequests(t, tc.urls[third], "").Requests
	if len(rows) != 2 || rows[0].Decision != service.DecisionForwarded || rows[1].Decision != service.DecisionReplicaHit {
		t.Fatalf("third node rows = %+v, want forwarded then replica_hit", rows)
	}
}

// replayBody is a request body one http.Request replays across runs.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// countingRW is a ResponseWriter with one reused header map; it keeps
// the status and the last body written.
type countingRW struct {
	h      http.Header
	status int
	body   []byte
}

func (w *countingRW) Header() http.Header         { return w.h }
func (w *countingRW) Write(p []byte) (int, error) { w.body = p; return len(p), nil }
func (w *countingRW) WriteHeader(code int)        { w.status = code }

// A non-owner's held-bytes hit costs what a single node's hit costs:
// the service's fast path serves the peer bytes after one owner check,
// and Node.Handler hands a non-/cluster/ request straight to the
// service mux. Both sides are driven in process through one replayed
// request, so only the serving path allocates.
func TestClusterHeldHitAllocsMatchSingleNode(t *testing.T) {
	const owner = "http://owner.invalid"
	node, err := New(Config{Self: "http://self.invalid", Peers: []string{owner}, Replicas: -1})
	if err != nil {
		t.Fatal(err)
	}
	srv := service.New(service.Config{Cluster: node})
	node.Bind(srv)
	p := freshPoint(t, node, func(o string) bool { return o == owner })
	payload := []byte(p.body())

	allocs := func(h http.Handler) (float64, *countingRW) {
		rb := &replayBody{}
		rb.Reset(payload)
		req := httptest.NewRequest(http.MethodPost, "/v1/solve", rb)
		w := &countingRW{h: make(http.Header, 4)}
		return testing.AllocsPerRun(200, func() {
			rb.Reset(payload)
			w.status = 0
			h.ServeHTTP(w, req)
		}), w
	}

	single := service.New(service.Config{})
	singleAllocs, sw := allocs(single.Handler())
	if sw.status != http.StatusOK || single.RespCache().Stats().Hits == 0 {
		t.Fatalf("single node: status %d, resp_cache %+v, want 200 hits", sw.status, single.RespCache().Stats())
	}
	if !srv.RespCache().PutReplica(p.key(t), sw.body) {
		t.Fatal("peer bytes refused")
	}
	heldAllocs, hw := allocs(node.Handler())
	if hw.status != http.StatusOK || !bytes.Equal(hw.body, sw.body) {
		t.Fatalf("held hit: status %d body %q, want 200 and the single node's bytes", hw.status, hw.body)
	}
	if leaders, _, served := servingCounters(t, srv); leaders != 0 || served != 201 {
		t.Fatalf("held hit: leaders=%d cluster_served=%d, want 0 and 201 (one warm-up run)", leaders, served)
	}
	if st := node.Stats(); st.ReplicaHits != 201 || st.ForwardsOut != 0 {
		t.Fatalf("held hit: stats %+v, want 201 replica hits and no forwards", st)
	}
	if heldAllocs != singleAllocs {
		t.Fatalf("non-owner held-bytes hit allocates %v per request through Node.Handler, single-node hit %v; want equal",
			heldAllocs, singleAllocs)
	}
}

// A traced request skips the fast path, so held peer bytes reach it
// through Route, which applies the same owner check: a non-owner's
// traced repeat is a replica hit, with no second forward and no compute.
func TestClusterTracedRepeatServesHeldBytesThroughRoute(t *testing.T) {
	ref := newReferenceServer(t)
	tc := newTestCluster(t, 3, func(_ int, ccfg *Config, scfg *service.Config) {
		ccfg.Replicas = -1 // the held bytes come from the forward alone
		scfg.TraceDir = t.TempDir()
		scfg.TraceEvery = 1
	})
	p := allPoints()[0]
	other := (tc.index(t, tc.nodes[0].OwnerOf(p.key(t))) + 1) % 3
	want := mustSolve(t, ref, p.body(), "")
	for i := 0; i < 2; i++ {
		if got := mustSolve(t, tc.urls[other], p.body(), ""); !bytes.Equal(got, want) {
			t.Fatalf("traced solve %d diverges:\n got: %s\nwant: %s", i, got, want)
		}
	}
	if st := tc.nodes[other].Stats(); st.ForwardsOut != 1 || st.ReplicaHits != 1 {
		t.Fatalf("stats = %+v, want one forward, then one replica hit", st)
	}
	if leaders, _, served := servingCounters(t, tc.srvs[other]); leaders != 0 || served != 2 {
		t.Fatalf("leaders=%d cluster_served=%d, want 0 and 2", leaders, served)
	}
	if rc := tc.srvs[other].RespCache().Stats(); rc.TraceBypass != 2 || rc.Hits != 1 || rc.Misses != 0 {
		t.Fatalf("resp_cache = %+v, want 2 trace bypasses and Route's one hit", rc)
	}
	rows := fetchRequests(t, tc.urls[other], "").Requests
	if len(rows) != 2 || rows[0].Decision != service.DecisionForwarded || rows[1].Decision != service.DecisionReplicaHit {
		t.Fatalf("rows = %+v, want forwarded then replica_hit", rows)
	}
}

// Held peer bytes are never an owner's answer: once the ring makes the
// holding node the key's owner, its next request computes, and its own
// bytes replace the held ones as the fast path's answer.
func TestClusterNewOwnerComputesOverHeldBytes(t *testing.T) {
	ref := newReferenceServer(t)
	tc := newTestCluster(t, 3, func(_ int, ccfg *Config, _ *service.Config) {
		ccfg.Replicas = -1 // the held bytes come from the forward alone
	})
	p := allPoints()[0]
	key := p.key(t)
	owner := tc.index(t, tc.nodes[0].OwnerOf(key))
	rest := slices.Delete(slices.Clone(tc.urls), owner, owner+1)
	heir := tc.index(t, BuildRing(rest).Owner(key))
	want := mustSolve(t, ref, p.body(), "")

	if got := mustSolve(t, tc.urls[heir], p.body(), ""); !bytes.Equal(got, want) {
		t.Fatalf("forwarded answer diverges:\n got: %s\nwant: %s", got, want)
	}
	if body, ok := tc.srvs[heir].RespCache().GetKey(key); !ok || !bytes.Equal(body, want) {
		t.Fatalf("heir holds no peer bytes after its forward: ok=%v body=%s", ok, body)
	}

	for _, n := range tc.nodes {
		n.RemoveMember(tc.urls[owner])
	}
	if o := tc.nodes[heir].OwnerOf(key); o != tc.urls[heir] {
		t.Fatalf("owner after the removal = %s, want the heir %s", o, tc.urls[heir])
	}
	for i := 0; i < 2; i++ {
		if got := mustSolve(t, tc.urls[heir], p.body(), ""); !bytes.Equal(got, want) {
			t.Fatalf("new owner's solve %d diverges:\n got: %s\nwant: %s", i, got, want)
		}
	}
	if leaders, _, served := servingCounters(t, tc.srvs[heir]); leaders != 1 || served != 1 {
		t.Fatalf("heir leaders=%d cluster_served=%d, want 1 compute over the held bytes and the first forward", leaders, served)
	}
	if st := tc.nodes[heir].Stats(); st.ReplicaHits != 0 || st.ForwardsOut != 1 {
		t.Fatalf("heir stats = %+v, want no replica hit as owner", st)
	}
	rows := fetchRequests(t, tc.urls[heir], "").Requests
	if last := rows[len(rows)-1]; last.Decision != service.DecisionRespCacheHit {
		t.Fatalf("new owner's repeat = %+v, want a fast-path hit on its computed bytes", last)
	}
	if rc := tc.srvs[heir].RespCache().Stats(); rc.Entries != 1 || rc.Stores != 1 {
		t.Fatalf("resp_cache = %+v, want the held entry replaced in place", rc)
	}
}

// A replica push must land in the unified response cache and serve a
// later local request byte-identically without a solver call: zero
// leaders on the replica, one replica hit, and the cached entry visible
// through the server's own RespCache handle.
func TestClusterReplicaPushServesUnifiedCache(t *testing.T) {
	ref := newReferenceServer(t)
	tc := newTestCluster(t, 3, nil)

	// A point whose owner and first replica are distinct harness nodes.
	var p point
	var owner, replica int
	found := false
	for _, cand := range allPoints() {
		reps := tc.nodes[0].ReplicasOf(cand.key(t))
		if len(reps) >= 2 && reps[0] != reps[1] {
			p, owner, replica = cand, tc.index(t, reps[0]), tc.index(t, reps[1])
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no point with distinct owner and replica")
	}

	want := mustSolve(t, ref, p.body(), "")
	if got := mustSolve(t, tc.urls[owner], p.body(), ""); !bytes.Equal(got, want) {
		t.Fatalf("owner bytes diverge from reference:\n got: %s\nwant: %s", got, want)
	}
	waitFor(t, "replica push", func() bool {
		return tc.nodes[replica].Stats().ReplicaStores >= 1
	})

	// The pushed entry lives in the serving tier's own cache.
	if body, ok := tc.srvs[replica].RespCache().GetKey(p.key(t)); !ok || !bytes.Equal(body, want) {
		t.Fatalf("unified cache entry missing or wrong: ok=%v body=%s", ok, body)
	}

	// A request through the replica serves the pushed bytes: no solve.
	if got := mustSolve(t, tc.urls[replica], p.body(), ""); !bytes.Equal(got, want) {
		t.Fatalf("replica hit diverges from reference:\n got: %s\nwant: %s", got, want)
	}
	if leaders, _, served := servingCounters(t, tc.srvs[replica]); leaders != 0 || served != 1 {
		t.Fatalf("replica leaders=%d cluster_served=%d, want 0 and 1 (no local solve)", leaders, served)
	}
	st := tc.nodes[replica].Stats()
	if st.ReplicaHits != 1 || st.ForwardsOut != 0 {
		t.Fatalf("replica stats = %+v, want 1 replica hit and no forwards", st)
	}
	// Both the direct GetKey above and the served request counted as
	// response-cache hits.
	if rc := tc.srvs[replica].RespCache().Stats(); rc.Hits < 2 {
		t.Fatalf("resp_cache hits = %d, want >= 2", rc.Hits)
	}
}

// A replica push is only a peer's claim — /cluster/v1/replicate accepts
// any body — so when the key's owner computes the point itself, its own
// bytes must replace the pushed ones. Otherwise one bogus push would
// become the owner's fast-path answer for that key from then on.
func TestClusterLocalComputeReplacesPushedBody(t *testing.T) {
	ref := newReferenceServer(t)
	tc := newTestCluster(t, 3, nil)
	p := allPoints()[0]
	owner := tc.index(t, tc.nodes[0].OwnerOf(p.key(t)))

	push, err := json.Marshal(map[string]string{"key": p.key(t), "body": "{\"bogus\":true}\n"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(tc.urls[owner]+"/cluster/v1/replicate", "application/json", bytes.NewReader(push))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || tc.nodes[owner].Stats().ReplicaStores != 1 {
		t.Fatalf("push answered %d, replica stores %d", resp.StatusCode, tc.nodes[owner].Stats().ReplicaStores)
	}

	want := mustSolve(t, ref, p.body(), "")
	if got := mustSolve(t, tc.urls[owner], p.body(), ""); !bytes.Equal(got, want) {
		t.Fatalf("owner's compute diverges from reference:\n got: %s\nwant: %s", got, want)
	}
	// The next request is a fast-path hit, and it serves computed bytes.
	if got := mustSolve(t, tc.urls[owner], p.body(), ""); !bytes.Equal(got, want) {
		t.Fatalf("owner's hit serves the pushed body:\n got: %s\nwant: %s", got, want)
	}
	if leaders, _, served := servingCounters(t, tc.srvs[owner]); leaders != 1 || served != 0 {
		t.Fatalf("owner leaders=%d cluster_served=%d, want 1 compute then a hit", leaders, served)
	}
	if rc := tc.srvs[owner].RespCache().Stats(); rc.Entries != 1 || rc.Bytes != int64(len(want)) {
		t.Fatalf("resp_cache = %+v, want 1 entry of %d bytes", rc, len(want))
	}
}

// An owner's answer longer than the forward read limit is a failed
// forward, never a truncated 200: the node computes locally, counts one
// fallback and keeps nothing for the key. An answer of exactly the limit
// is still served.
func TestClusterForwardOverLimitFallsBack(t *testing.T) {
	for _, c := range []struct {
		size   int
		served bool
	}{{maxPeerBody, true}, {maxPeerBody + 1, false}} {
		owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			w.Write(bytes.Repeat([]byte{'x'}, c.size))
		}))
		node, err := New(Config{Self: "http://self.invalid", Peers: []string{owner.URL}})
		if err != nil {
			t.Fatal(err)
		}
		srv := service.New(service.Config{Cluster: node})
		node.Bind(srv)
		p := freshPoint(t, node, func(o string) bool { return o == owner.URL })
		res, ok := node.Route(context.Background(),
			service.ComputeSpec{Route: "solve", Key: p.key(t), Body: []byte(p.body())})
		owner.Close()
		if ok != c.served || (ok && len(res.Body) != c.size) {
			t.Fatalf("%d-byte answer: served=%v with %d bytes, want served=%v", c.size, ok, len(res.Body), c.served)
		}
		wantFallback := int64(1)
		if c.served {
			wantFallback = 0
		}
		if st := node.Stats(); st.ForwardFallback != wantFallback {
			t.Fatalf("%d-byte answer: forward_fallback = %d, want %d", c.size, st.ForwardFallback, wantFallback)
		}
		if _, held := srv.RespCache().GetKey(p.key(t)); held != c.served {
			t.Fatalf("%d-byte answer: held = %v, want %v", c.size, held, c.served)
		}
	}
}
