package main

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/service"
)

// accessRec is one access record a node's service layer emitted.
type accessRec struct {
	node, id, route, decision            string
	status, hops                         int
	decode, wait, route_, compute, total int64 // µs, as the service truncates them
	end                                  time.Time
}

// accessSink is a traced node's access-log handler. It formats every
// record through ipcd's text handler, as an untraced node does, so the
// service's own time still includes that cost; while collecting it
// also keeps every "access" record in memory.
type accessSink struct {
	text    slog.Handler
	node    string
	collect atomic.Bool
	mu      sync.Mutex
	recs    []accessRec
}

func (h *accessSink) Enabled(context.Context, slog.Level) bool { return true }
func (h *accessSink) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *accessSink) WithGroup(string) slog.Handler            { return h }

func (h *accessSink) Handle(ctx context.Context, r slog.Record) error {
	if err := h.text.Handle(ctx, r); err != nil || !h.collect.Load() {
		return err
	}
	a := accessRec{node: h.node, end: r.Time}
	r.Attrs(func(at slog.Attr) bool {
		switch at.Key {
		case "id":
			a.id = at.Value.String()
		case "route":
			a.route = at.Value.String()
		case "decision":
			a.decision = at.Value.String()
		case "status":
			a.status = int(at.Value.Int64())
		case "hops":
			a.hops = int(at.Value.Int64())
		case "decode_us":
			a.decode = at.Value.Int64()
		case "wait_us":
			a.wait = at.Value.Int64()
		case "route_us":
			a.route_ = at.Value.Int64()
		case "compute_us":
			a.compute = at.Value.Int64()
		case "total_us":
			a.total = at.Value.Int64()
		}
		return true
	})
	h.mu.Lock()
	h.recs = append(h.recs, a)
	h.mu.Unlock()
	return nil
}

func (st *stack) setCollect(on bool) {
	for _, n := range st.nodes {
		if n.sink != nil {
			n.sink.collect.Store(on)
		}
	}
}

func (st *stack) records() []accessRec {
	var out []accessRec
	for _, n := range st.nodes {
		n.sink.mu.Lock()
		out = append(out, n.sink.recs...)
		n.sink.mu.Unlock()
	}
	return out
}

// breakdown attributes one request's client-observed round trip to the
// layers that spent it, in µs. The two residuals are loopback (client
// RTT minus the ingress node's total) and service self (total minus
// decode, wait, route and compute): key derivation, canonical encode,
// the response write and the recorders.
type breakdown struct {
	s                   *sample
	in, owner           *accessRec // owner is set on forwarded requests only
	rtt, loopback, self float64
	// peerNet is the forward's route time minus the owner's total: the
	// intra-cluster network and client cost of the hop.
	peerNet float64
}

// join matches every traced client request with the access record its
// ingress node wrote under the request's ID, and a forwarded request
// with its owner's record under the same inherited ID.
func join(samples []sample, recs []accessRec) ([]breakdown, error) {
	type key struct {
		id   string
		hops int
	}
	byID := map[key]*accessRec{}
	for i := range recs {
		k := key{recs[i].id, recs[i].hops}
		if byID[k] != nil {
			return nil, fmt.Errorf("two access records for request %s at hop %d", k.id, k.hops)
		}
		byID[k] = &recs[i]
	}
	var out []breakdown
	for i := range samples {
		s := &samples[i]
		if s.id == "" || s.status != http.StatusOK {
			continue
		}
		in := byID[key{s.id, 0}]
		if in == nil {
			return nil, fmt.Errorf("no access record for request %s", s.id)
		}
		b := breakdown{s: s, in: in, rtt: float64(s.rtt()) / 1e3}
		b.loopback = b.rtt - float64(in.total)
		b.self = float64(in.total - in.decode - in.wait - in.route_ - in.compute)
		if in.decision == service.DecisionForwarded {
			b.owner = byID[key{s.id, 1}]
			if b.owner == nil {
				return nil, fmt.Errorf("forwarded request %s has no owner record", s.id)
			}
			b.peerNet = float64(in.route_ - b.owner.total)
		}
		out = append(out, b)
	}
	return out, nil
}

// readCounters snapshots every counter the layers keep, summed over
// the nodes; the GTPN ones are process-global. Phases sum their
// deltas; the gauges (rc.bytes, sc.entries) are read at the end.
func readCounters(st *stack) map[string]float64 {
	c := map[string]float64{}
	for _, n := range st.nodes {
		s := servingCounters(n.srv)
		c["leaders"] += float64(s.Leaders)
		c["coalesced"] += float64(s.Coalesced)
		r := n.srv.RespCache().Stats()
		c["rc.hits"] += float64(r.Hits)
		c["rc.misses"] += float64(r.Misses)
		c["rc.evictions"] += float64(r.Evictions)
		c["rc.bytes"] += float64(r.Bytes)
		if n.cn != nil {
			s := n.cn.Stats()
			c["cluster.forwards_out"] += float64(s.ForwardsOut)
			c["cluster.forward_fallback"] += float64(s.ForwardFallback)
			c["cluster.replica_hits"] += float64(s.ReplicaHits)
			c["cluster.replica_pushes"] += float64(s.ReplicaPushes)
			c["cluster.replica_push_errors"] += float64(s.ReplicaPushErrors)
			c["cluster.hop_cap_local"] += float64(s.HopCapLocal)
		}
	}
	sc, eng := core.SolveCache(), core.SolverEngine()
	c["sc.hits"], c["sc.misses"], c["sc.entries"] = float64(sc.Hits), float64(sc.Misses), float64(sc.Entries)
	c["gtpn.states_explored"] = float64(eng.StatesExplored)
	c["gtpn.graphs_built"] = float64(eng.GraphsBuilt)
	c["gtpn.stationary_sweeps"] = float64(eng.StationarySweeps)
	c["gtpn.graphs_reused"] = float64(eng.GraphsReused)
	c["gtpn.warm_starts"] = float64(eng.WarmStarts)
	return c
}

// decisions are the service's routing decisions, in the order the
// per-layer shares are reported.
var decisions = []string{
	service.DecisionRespCacheHit, service.DecisionFlightFollower, service.DecisionForwarded,
	service.DecisionReplicaHit, service.DecisionHopCappedLocal, service.DecisionLocalCompute,
}

// layerValues computes every per-layer metric of a traced run. The
// breakdown's p50s come from the unloaded phase (un, unSamples), where
// nothing queues, so they add up to its median round trip; the wait times,
// rejections, decision shares and counters from both phases (bs,
// samples).
func layerValues(bs, un []breakdown, samples, unSamples []sample, delta, end map[string]float64, calls callTimings) map[string]float64 {
	col := func(bs []breakdown, f func(b *breakdown) (float64, bool)) []float64 {
		var xs []float64
		for i := range bs {
			if v, use := f(&bs[i]); use {
				xs = append(xs, v)
			}
		}
		return xs
	}
	unloaded := func(f func(b *breakdown) float64) []float64 {
		return col(un, func(b *breakdown) (float64, bool) { return f(b), true })
	}
	forwarded := func(f func(b *breakdown) float64) []float64 {
		return col(un, func(b *breakdown) (float64, bool) { return f(b), b.owner != nil })
	}
	waits := col(bs, func(b *breakdown) (float64, bool) { return float64(b.in.wait), true })
	computes := col(un, func(b *breakdown) (float64, bool) { return float64(b.in.compute), b.in.compute > 0 })
	var gaps []float64
	for _, s := range unSamples {
		for i := 1; i < len(s.lineEnds); i++ {
			gaps = append(gaps, float64(s.lineEnds[i]-s.lineEnds[i-1])/1e3)
		}
	}
	var rejected int64
	for _, s := range samples {
		if s.status == http.StatusTooManyRequests {
			rejected++
		}
	}
	v := map[string]float64{
		"trace.requests":                 float64(len(bs)),
		"loopback.self_us.p50":           median(unloaded(func(b *breakdown) float64 { return b.loopback })),
		"service.decode_us.p50":          median(unloaded(func(b *breakdown) float64 { return float64(b.in.decode) })),
		"service.self_us.p50":            median(unloaded(func(b *breakdown) float64 { return b.self })),
		"service.total_us.p50":           median(unloaded(func(b *breakdown) float64 { return float64(b.in.total) })),
		"service.compute_us.p50":         median(computes),
		"service.wait_us.p50":            median(waits),
		"service.wait_us.p99":            percentile(waits, 99),
		"service.rejected":               float64(rejected),
		"service.coalesced_ratio":        ratio(delta["coalesced"], delta["leaders"]+delta["coalesced"]),
		"service.resp_cache.hit_ratio":   ratio(delta["rc.hits"], delta["rc.hits"]+delta["rc.misses"]),
		"service.resp_cache.evictions":   delta["rc.evictions"],
		"service.resp_cache.bytes":       end["rc.bytes"],
		"gtpn.solve_cache.hit_ratio":     ratio(delta["sc.hits"], delta["sc.hits"]+delta["sc.misses"]),
		"gtpn.solve_cache.entries":       end["sc.entries"],
		"cluster.forward_us.p50":         median(forwarded(func(b *breakdown) float64 { return float64(b.in.route_) })),
		"cluster.peer_net_us.p50":        median(forwarded(func(b *breakdown) float64 { return b.peerNet })),
		"gtpn.states_explored_per_req":   ratio(delta["gtpn.states_explored"], float64(len(bs))),
		"gtpn.graphs_built":              delta["gtpn.graphs_built"],
		"gtpn.stationary_sweeps_per_req": ratio(delta["gtpn.stationary_sweeps"], float64(len(bs))),
		"gtpn.graphs_reused":             delta["gtpn.graphs_reused"],
		"gtpn.warm_starts":               delta["gtpn.warm_starts"],
		"sweep.line_gap_us.p50":          median(gaps),
		"service.inproc_hit_us.p50":      calls.inprocOn,
		"obs.hit_overhead_us":            calls.inprocOn - calls.inprocOff,
		"service.key_us.p50":             calls.key,
		"cluster.route_call_us.p50":      calls.route,
		"core.analyze_local_us.p50":      calls.analyzeLocal,
		"core.analyze_nonlocal_us.p50":   calls.analyzeNonLocal,
		"core.sweep_point_us.p50":        calls.sweepPoint,
	}
	counts := map[string]float64{}
	for i := range bs {
		counts[bs[i].in.decision]++
	}
	for _, name := range []string{"forwards_out", "forward_fallback", "replica_hits",
		"replica_pushes", "replica_push_errors", "hop_cap_local"} {
		v["cluster."+name] = delta["cluster."+name]
	}
	for _, name := range decisions {
		v["service.decision."+name+"_share"] = ratio(counts[name], float64(len(bs)))
	}
	return v
}

// callTimings are the medians of direct calls into the layers' public
// functions, made in process after the load.
type callTimings struct {
	inprocOn, inprocOff float64 // Server.Handler().ServeHTTP resp-cache hit, recorders on / off
	key                 float64 // service.SolveKey
	route               float64 // cluster.Node.Route on a key the ingress does not own
	analyzeLocal        float64 // core.System.AnalyzeContext, fresh local point
	analyzeNonLocal     float64 // the same, fresh non-local point
	sweepPoint          float64 // core.SweepAnalyzer.AnalyzeNext
}

func usSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e3 }

// timeCalls times the public calls over inputs drawn from the seed.
func timeCalls(w *workload, st *stack, seed uint64) (callTimings, error) {
	var ct callTimings
	var err error
	if ct.inprocOn, ct.inprocOff, err = timeInprocHits(); err != nil {
		return ct, err
	}
	src := phaseSources(seed, "calls", 1)[0]
	var keys []float64
	for k := 0; len(keys) < 256; k++ {
		for _, p := range w.draw(src, k).pts {
			t := time.Now()
			if _, err := service.SolveKey(p.Arch, p.N, 1, p.X, p.NonLocal); err != nil {
				return ct, err
			}
			keys = append(keys, usSince(t))
		}
	}
	ct.key = median(keys)
	ctx := context.Background()
	var local, nonLocal []float64
	for k := 0; k < 32; k++ {
		p := point{Arch: 1 + k%4, N: 1 + k/4%2, X: freshX(src)}
		if k < 4 {
			p.N, p.NonLocal = 1, true
		}
		t := time.Now()
		if _, err := core.New(core.Arch(p.Arch)).AnalyzeContext(ctx, core.Workload{
			Conversations: p.N, ServerComputeUS: p.X, NonLocal: p.NonLocal}); err != nil {
			return ct, err
		}
		if p.NonLocal {
			nonLocal = append(nonLocal, usSince(t))
		} else {
			local = append(local, usSince(t))
		}
	}
	ct.analyzeLocal, ct.analyzeNonLocal = median(local), median(nonLocal)
	var sweep []float64
	for arch := 1; arch <= 4; arch++ {
		a := core.New(core.Arch(arch)).NewSweepAnalyzer()
		for _, p := range sweepPoints(arch, freshX(src)/10)[:sweepCols] {
			t := time.Now()
			if _, err := a.AnalyzeNext(ctx, core.Workload{Conversations: p.N, ServerComputeUS: p.X}); err != nil {
				return ct, err
			}
			sweep = append(sweep, usSince(t))
		}
	}
	ct.sweepPoint = median(sweep)
	if w.cluster {
		if ct.route, err = timeRoute(st); err != nil {
			return ct, err
		}
	}
	return ct, nil
}

// timeRoute times cluster.Node.Route at the first node on every hot
// key another member owns: replica hits and forwards to the owner.
func timeRoute(st *stack) (float64, error) {
	in := st.nodes[0].cn
	var ts []float64
	for round := 0; round < 8; round++ {
		for _, p := range hotPoints {
			key, err := service.SolveKey(p.Arch, p.N, 1, p.X, false)
			if err != nil {
				return 0, err
			}
			if in.OwnerOf(key) == in.Self() {
				continue
			}
			spec := service.ComputeSpec{Route: "solve", Key: key, Body: service.MarshalDeterministic(map[string]any{
				"arch": p.Arch, "conversations": p.N, "hosts": 1, "non_local": false, "server_compute_us": p.X,
			})}
			t := time.Now()
			res, served := in.Route(context.Background(), spec)
			ts = append(ts, usSince(t))
			if !served || res.Status != http.StatusOK {
				return 0, fmt.Errorf("route of a hot key was not served by the cluster")
			}
		}
	}
	return median(ts), nil
}

// timeInprocHits times resp-cache hits through Handler().ServeHTTP on
// two fresh servers, one with ipcd's recorders (text access log,
// default SLO, journal) and one with all of them off, interleaved so
// that both see the same machine.
func timeInprocHits() (on, off float64, err error) {
	srvOn := service.New(service.Config{AccessLog: slog.New(newAccessLog()),
		Journal: obs.NewJournal(0, slog.New(newAccessLog()), "inproc")})
	srvOff := service.New(service.Config{SLO: []obs.Objective{}})
	var w discardWriter
	var ons, offs []float64
	for round := 0; round < 65; round++ {
		for _, body := range hotBodies {
			for _, s := range []*service.Server{srvOn, srvOff} {
				req, err := http.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body))
				if err != nil {
					return 0, 0, err
				}
				w.reset()
				t := time.Now()
				s.Handler().ServeHTTP(&w, req)
				us := usSince(t)
				if w.code != http.StatusOK {
					return 0, 0, fmt.Errorf("in-process solve of %s answered %d", body, w.code)
				}
				if round == 0 {
					continue // the first round computes and fills the caches
				}
				if s == srvOn {
					ons = append(ons, us)
				} else {
					offs = append(offs, us)
				}
			}
		}
	}
	return median(ons), median(offs), nil
}

// discardWriter is a reusable http.ResponseWriter that keeps only the
// status, so an in-process call times the server and not a recorder.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }

func (w *discardWriter) reset() {
	if w.h == nil {
		w.h = http.Header{}
	}
	clear(w.h)
	w.code = http.StatusOK
}
