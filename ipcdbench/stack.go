package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/service"
)

// memberNames are the fixed advertised URLs of the cluster's nodes. A
// dialer resolves them to the ephemeral loopback listeners, so ring
// placement — and with it the mix of routing decisions — is the same
// on every run.
var memberNames = []string{"http://n1.bench", "http://n2.bench", "http://n3.bench"}

// node is one ipcd instance on a loopback listener.
type node struct {
	name string // advertised base URL
	srv  *service.Server
	cn   *cluster.Node // nil single-node
	hs   *http.Server
	sink *accessSink // nil untraced
}

// stack is the system under test: one node, or three in a cluster,
// with the background loops ipcd runs.
type stack struct {
	nodes  []*node
	dial   func(ctx context.Context, network, addr string) (net.Conn, error)
	cancel context.CancelFunc
	wg     sync.WaitGroup
	peers  *http.Client // the cluster's intra-node client
}

// newAccessLog returns the access-log handler ipcd would have: a text
// handler, here writing to io.Discard so that formatting is still paid.
func newAccessLog() slog.Handler { return slog.NewTextHandler(io.Discard, nil) }

// startStack brings up the workload's nodes configured as cmd/ipcd
// configures them: default SLO, a journal, a text access log, and in
// cluster mode the peer prober at one second. With traced set, each
// node's access log also collects its records in memory.
func startStack(w *workload, traced bool) (*stack, error) {
	ctx, cancel := context.WithCancel(context.Background())
	st := &stack{cancel: cancel}
	names := memberNames[:1]
	if w.cluster {
		names = memberNames
	}
	addrs := map[string]string{} // host:80 -> listener address
	st.dial = func(ctx context.Context, network, addr string) (net.Conn, error) {
		if a, ok := addrs[addr]; ok {
			addr = a
		}
		var d net.Dialer
		return d.DialContext(ctx, network, addr)
	}
	st.peers = &http.Client{Transport: &http.Transport{
		DialContext:         st.dial,
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 16,
	}}
	var lns []net.Listener
	for _, name := range names {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			st.close()
			for _, l := range lns {
				l.Close()
			}
			return nil, fmt.Errorf("listen: %w", err)
		}
		lns = append(lns, ln)
		addrs[strings.TrimPrefix(name, "http://")+":80"] = ln.Addr().String()
	}
	for i, name := range names {
		host := strings.TrimPrefix(name, "http://")
		journal := obs.NewJournal(0, slog.New(newAccessLog()), host)
		n := &node{name: name}
		access := newAccessLog()
		if traced {
			n.sink = &accessSink{text: access, node: host}
			access = n.sink
		}
		cfg := service.Config{
			NodeName:  host,
			AccessLog: slog.New(access),
			Journal:   journal,
		}
		if w.cluster {
			cn, err := cluster.New(cluster.Config{
				Self:    name,
				Peers:   names,
				Journal: journal,
				Client:  st.peers,
			})
			if err != nil {
				st.close()
				return nil, err
			}
			n.cn = cn
			cfg.Cluster = cn
		}
		n.srv = service.New(cfg)
		handler := n.srv.Handler()
		if n.cn != nil {
			n.cn.Bind(n.srv)
			handler = n.cn.Handler()
		}
		n.hs = &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
		st.nodes = append(st.nodes, n)
		st.wg.Add(1)
		go func(ln net.Listener) {
			defer st.wg.Done()
			_ = n.hs.Serve(ln) // returns http.ErrServerClosed on close
		}(lns[i])
		st.loop(ctx, time.Second, n.srv.TickSLO)
		st.loop(ctx, 10*time.Second, n.srv.SampleMetrics)
		if n.cn != nil {
			st.wg.Add(1)
			go func() {
				defer st.wg.Done()
				n.cn.StartProber(ctx, time.Second)
			}()
		}
	}
	for _, n := range st.nodes {
		if n.cn == nil {
			continue
		}
		jctx, jcancel := context.WithTimeout(ctx, 10*time.Second)
		err := n.cn.Join(jctx)
		jcancel()
		if err != nil {
			st.close()
			return nil, fmt.Errorf("cluster join: %w", err)
		}
	}
	return st, nil
}

// loop runs fn every period until the stack closes, as ipcd's SLO
// clock and history sampler do.
func (st *stack) loop(ctx context.Context, period time.Duration, fn func(time.Time)) {
	st.wg.Add(1)
	go func() {
		defer st.wg.Done()
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case t := <-tick.C:
				fn(t)
			}
		}
	}()
}

// close stops every listener and background loop and waits for them.
func (st *stack) close() {
	st.cancel()
	for _, n := range st.nodes {
		_ = n.hs.Close()
	}
	st.wg.Wait()
	st.peers.CloseIdleConnections()
}

// client returns a generator worker's client: one keep-alive
// connection, no compression, names resolved by the stack's dialer.
func (st *stack) client() *http.Client {
	return &http.Client{Transport: &http.Transport{
		DialContext:         st.dial,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// timeSetUps sets the stack up n times and returns each set-up's
// seconds. With keep set, the last stack is left running and returned;
// every other is closed. Set-ups run on every CPU: pinned to one, like
// the unloaded phase, six cluster runs in a noisy hour read 0.15 s in
// some and 0.27 s in others; unpinned, all read 0.21-0.24 s.
func timeSetUps(w *workload, traced bool, n int, keep bool) ([]float64, *stack, error) {
	var ts []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		st, err := setUp(w, traced)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		ts = append(ts, time.Since(t0).Seconds())
		if keep && i == n-1 {
			return ts, st, nil
		}
		st.close()
	}
	return ts, nil, nil
}

// setUp brings a stack up and pre-warms it: every hot point is sent
// through every node, then the cluster's asynchronous replica pushes
// are awaited, so that every timed hot request finds its caches warm
// and the routing decisions are fixed by the ring alone. The GTPN
// solve cache is process-global; it is dropped first, so every set-up
// pays what a fresh process pays.
func setUp(w *workload, traced bool) (*stack, error) {
	core.ResetSolveCache()
	st, err := startStack(w, traced)
	if err != nil {
		return nil, err
	}
	c := st.client()
	defer c.CloseIdleConnections()
	for _, n := range st.nodes {
		for i, body := range hotBodies {
			status, _, err := post(c, n.name+"/v1/solve", body, nil)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("status %d", status)
			}
			if err != nil {
				st.close()
				return nil, fmt.Errorf("pre-warm %v via %s: %w", hotPoints[i], n.name, err)
			}
		}
	}
	if err := st.awaitPushes(); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// awaitPushes waits until every local compute's replica push has
// landed (or failed): each leader on a cluster node offers its 200 to
// the one replica the ring names, so pushes catch up with leaders.
// Called after pre-warming and after each phase, so that decisions,
// counters and the heap are read with the cluster at rest.
func (st *stack) awaitPushes() error {
	if len(st.nodes) < 2 {
		return nil
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var leaders, pushed int64
		for _, n := range st.nodes {
			leaders += servingCounters(n.srv).Leaders
			s := n.cn.Stats()
			pushed += s.ReplicaPushes + s.ReplicaPushErrors
		}
		if pushed >= leaders {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica pushes stalled: %d of %d", pushed, leaders)
		}
		time.Sleep(time.Millisecond)
	}
}
