package cluster

import (
	"bytes"
	"context"
	"flag"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/gtpn"
	"repro/internal/obs"
	"repro/internal/service"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden")

// The ?scope=cluster observability bodies, pinned byte for byte. Three
// nodes run in process under fixed names ("http://g0".."http://g2")
// that a custom dialer resolves to loopback listeners, so ring placement
// and member order never depend on ports. Every clock the bodies read is
// pinned, and the request sequence visits nodes in name order — a
// forward goes from a lower-named node to a higher-named one — so the
// (unix_ms, node, seq) merges never depend on which millisecond a
// request landed in. Only wall-time and GOMAXPROCS values are masked.
// Refresh with -update.

var (
	latencyObject  = regexp.MustCompile(`"latency_us":\{("[a-z]+":\{[^{}]*\},?)*\}`)
	parallelSolves = regexp.MustCompile(`"(parallel_class_solves)":[0-9][0-9.eE+-]*`)
	requestTimings = regexp.MustCompile(`"(unix_ms|decode_us|wait_us|route_us|compute_us|total_us)":[0-9][0-9.eE+-]*`)
)

func maskVolatile(body []byte, maskTimes bool) []byte {
	out := latencyObject.ReplaceAll(body, []byte(`"latency_us":"*"`))
	out = parallelSolves.ReplaceAll(out, []byte(`"$1":"*"`))
	if maskTimes {
		out = requestTimings.ReplaceAll(out, []byte(`"$1":"*"`))
	}
	return out
}

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

func TestClusterObservabilityGolden(t *testing.T) {
	gtpn.ResetSolveCache()
	gtpn.ResetSolverEngineStats()
	names := []string{"http://g0", "http://g1", "http://g2"}
	addrs := map[string]string{}
	var lns []net.Listener
	for _, name := range names {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns = append(lns, ln)
		addrs[strings.TrimPrefix(name, "http://")+":80"] = ln.Addr().String()
	}
	transport := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		if a, ok := addrs[addr]; ok {
			addr = a
		}
		var d net.Dialer
		return d.DialContext(ctx, network, addr)
	}}
	client := &http.Client{Transport: transport}
	t.Cleanup(transport.CloseIdleConnections)

	var nodes []*Node
	var srvs []*service.Server
	for i, name := range names {
		host := strings.TrimPrefix(name, "http://")
		journal := obs.NewJournal(8, nil, host)
		journal.SetNow(func() time.Time { return time.UnixMilli(7000) })
		node, err := New(Config{Self: name, Peers: names, Replicas: -1, Client: client, Journal: journal})
		if err != nil {
			t.Fatal(err)
		}
		srv := service.New(service.Config{
			Workers:  1,
			NodeName: host,
			Cluster:  node,
			Journal:  journal,
			SLO:      []obs.Objective{{Route: "solve", TargetPPM: 990_000}},
		})
		node.Bind(srv)
		hs := &http.Server{Handler: node.Handler()}
		go hs.Serve(lns[i])
		t.Cleanup(func() { hs.Close() })
		nodes = append(nodes, node)
		srvs = append(srvs, srv)
	}

	// A point owned by the last-named node, so its forward from g1 runs
	// in name order.
	var p point
	for _, cand := range allPoints() {
		if nodes[0].OwnerOf(cand.key(t)) == names[2] {
			p = cand
			break
		}
	}
	if p == (point{}) {
		t.Fatal("no point owned by g2")
	}

	do := func(method, url, body string, hdr map[string]string, want int) []byte {
		t.Helper()
		req, err := http.NewRequest(method, url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, url, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != want {
			t.Fatalf("%s %s: %d %s, want %d", method, url, resp.StatusCode, b, want)
		}
		return b
	}

	for _, srv := range srvs {
		srv.SampleMetrics(time.UnixMilli(1000))
	}
	do("POST", "http://g0/v1/solve", `{"arch":9,"conversations":1}`, nil, http.StatusBadRequest)
	do("POST", "http://g0/v1/solve", p.body(), map[string]string{service.HopsHeader: "2"}, http.StatusLoopDetected)
	do("POST", "http://g1/v1/solve", p.body(), nil, http.StatusOK) // miss: forwarded to g2
	do("POST", "http://g2/v1/solve", p.body(), nil, http.StatusOK) // hit: g2's response cache
	for _, srv := range srvs {
		srv.TickSLO(time.UnixMilli(2000))
		srv.SampleMetrics(time.UnixMilli(3000))
		srv.BeginDrain()
	}

	for _, read := range []struct {
		path, golden string
		maskTimes    bool
	}{
		{"/metrics", "cluster_metrics.json", false},
		{"/metrics/history", "cluster_history.json", false},
		{"/debug/requests", "cluster_requests.json", true},
		{"/debug/health", "cluster_health.json", false},
		{"/debug/events", "cluster_events.json", false},
	} {
		body := do("GET", "http://g0"+read.path+"?scope=cluster", "", nil, http.StatusOK)
		checkGolden(t, read.golden, maskVolatile(body, read.maskTimes))
	}
}
