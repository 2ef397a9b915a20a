// Package service is the serving layer: it exposes the core façade and
// the experiment registry over HTTP/JSON (stdlib net/http only), layered
// with the three production mechanisms the paper's argument calls for at
// the serving tier — request coalescing (N concurrent identical solves
// pay for one solve), bounded-concurrency admission control with
// explicit backpressure (429 + Retry-After when the queue is full), and
// graceful drain with request deadlines propagated via context.Context
// all the way into the GTPN solver's fixed-point iteration.
//
// Every response body is deterministic JSON: sorted keys, fixed float
// formatting. Identical requests yield byte-identical bodies, which is
// what makes coalescing transparent and load-test runs comparable.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/ringbuf"
	"repro/internal/trace"
)

// Config tunes the server.
type Config struct {
	// Workers bounds the number of concurrently computing requests
	// (solves, simulations, experiment runs). 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds how many admitted computations may wait for a
	// worker slot beyond the Workers running; one more is refused with
	// 429 and a Retry-After. 0 means 64; negative means no queue.
	QueueDepth int
	// RequestTimeout bounds one computation; it becomes the deadline of
	// the context threaded through core and gtpn.Solve. 0 means 2 minutes.
	RequestTimeout time.Duration
	// TraceDir, when set, samples request traces: every TraceEvery-th
	// computing request gets a wall-clock span recorder, and its Chrome
	// trace JSON is written to TraceDir/req-<n>-<route>.json when the
	// request completes. Empty (the default) disables sampling entirely.
	TraceDir string
	// TraceEvery is the trace sampling interval; 0 means 100 (trace one
	// request in a hundred).
	TraceEvery int
	// NodeName labels this node in request IDs, trace process lanes,
	// and access logs. Empty means "ipcd"; ipcd derives it from the
	// advertised cluster URL in cluster mode.
	NodeName string
	// AccessLog, when non-nil, receives one structured record per
	// completed request, carrying the request ID. Nil (the default)
	// disables access logging and keeps the untraced serving fast path
	// allocation-free.
	AccessLog *slog.Logger
	// Cluster, when non-nil, makes this server one node of a
	// consistent-hash cluster: solve/simulate computations whose key
	// another node owns are routed there instead of computed locally,
	// and local results are offered back for replication. See
	// ClusterRouter.
	Cluster ClusterRouter
	// SLO is the set of availability/latency objectives the server
	// tracks (burn rates in /metrics, breach events in the journal).
	// Nil means obs.DefaultObjectives(); an empty non-nil slice
	// disables SLO tracking entirely.
	SLO []obs.Objective
	// Journal, when non-nil, receives structured lifecycle events:
	// drain begin, load-shed episodes, response-cache high-water marks,
	// SLO breaches. It also backs GET /debug/events. Nil disables the
	// journal (the endpoint then reports an empty list).
	Journal *obs.Journal
	// Version is the build version echoed by GET /healthz and the ipcd
	// "serving" log record. Empty means "dev".
	Version string
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 2 * time.Minute
	}
	if c.TraceEvery <= 0 {
		c.TraceEvery = 100
	}
	if c.NodeName == "" {
		c.NodeName = "ipcd"
	}
	if c.SLO == nil {
		c.SLO = obs.DefaultObjectives()
	}
	if c.Version == "" {
		c.Version = "dev"
	}
	return c
}

// The capacities of the Server's observability rings.
const (
	// historySize bounds the /metrics/history ring of counter samples
	// appended by SampleMetrics: an hour at ipcd's default ten-second
	// sampling interval.
	historySize = 360
	// recentRequests bounds the /debug/requests ring: the last completed
	// requests' observability rows (id, route, key, routing decision,
	// per-phase durations).
	recentRequests = 128
)

// Server is the ipcd request-processing core, independent of any
// listener so tests can drive it through httptest.
type Server struct {
	cfg        Config
	mux        *http.ServeMux
	slots      chan struct{} // worker pool: a token per running computation
	admitted   atomic.Int64  // computations running or queued for a slot
	draining   atomic.Bool
	flights    flightGroup
	metrics    *metrics
	historyMu  sync.Mutex
	history    *ringbuf.Ring[historyPoint]
	requestsMu sync.Mutex
	requests   *ringbuf.Ring[requestRecord] // the last recentRequests completed requests
	respCache  *RespCache
	slo        *obs.Tracker // nil when SLO tracking is disabled
	start      time.Time
	lastShedMS atomic.Int64 // journal rate limit for shed episodes
	traceSeq   atomic.Int64 // computing requests seen, for trace sampling
	reqSeq     atomic.Int64 // request IDs minted on compute routes
	obsSeq     atomic.Int64 // request IDs minted on observability routes

	// systems holds one core.System per validated (arch, hosts), at
	// [arch-1][hosts-1], for /v1/solve and the /v1/sweep rows, so each
	// System's canonical round trip C is solved once in the Server's
	// life rather than once per request.
	systems [maxArch][maxHosts]*core.System

	// testHookAdmitted, when set, runs in a computation leader after it
	// holds a worker slot and before it computes — tests use it to hold
	// requests in flight deterministically.
	testHookAdmitted func(route string)
	// testHookSweepPoint, when set, runs in a sweep row right after a
	// point's solve returns, with the stream's context, the point index,
	// and the solve error — tests use it to observe mid-stream
	// cancellation deterministically (the context is the request's, so a
	// hook can wait for the server to notice a client disconnect).
	testHookSweepPoint func(ctx context.Context, index int, err error)
}

// New creates a Server.
func New(cfg Config) *Server {
	s := &Server{
		cfg:     cfg.withDefaults(),
		metrics: newMetrics(),
		start:   time.Now(),
	}
	for a := range s.systems {
		for h := range s.systems[a] {
			s.systems[a][h] = core.New(core.Arch(a+1), core.WithHosts(h+1))
		}
	}
	s.history = ringbuf.New[historyPoint](historySize)
	s.requests = ringbuf.New[requestRecord](recentRequests)
	s.respCache = newRespCache(respCacheEntries, respCacheMaxBytes)
	if s.cfg.Journal != nil {
		journal, node := s.cfg.Journal, s.cfg.NodeName
		s.respCache.setHighWaterHook(respCacheHighWaterStart, func(bytes int64) {
			journal.Record(obs.EventRespCache, node,
				"bytes high-water "+strconv.FormatInt(bytes, 10))
		})
	}
	if len(s.cfg.SLO) > 0 {
		s.slo = obs.NewTracker(s.cfg.SLO, s.cfg.Journal)
	}
	s.slots = make(chan struct{}, s.cfg.Workers)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/solve", s.instrument("solve", false, s.handleSolve))
	s.mux.HandleFunc("POST /v1/sweep", s.instrument("sweep", false, s.handleSweep))
	s.mux.HandleFunc("POST /v1/simulate", s.instrument("simulate", false, s.handleSimulate))
	s.mux.HandleFunc("GET /v1/experiments", s.instrument("experiments", false, s.handleExperimentList))
	s.mux.HandleFunc("GET /v1/experiments/{id}", s.instrument("experiment", false, s.handleExperiment))
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", true, s.handleHealthz))
	for _, o := range obsRoutes {
		s.mux.HandleFunc("GET "+o.path, s.instrument(o.name, true, s.serveObs(o)))
	}
	return s
}

// Handler is the HTTP entry point.
func (s *Server) Handler() http.Handler { return s.mux }

// BeginDrain stops admitting new work: every subsequent request except
// /healthz and the observability routes is refused with 503 and
// Connection: close, while requests already in flight run to
// completion. Used on SIGTERM.
func (s *Server) BeginDrain() {
	if s.draining.CompareAndSwap(false, true) {
		s.cfg.Journal.Record(obs.EventDrain, s.cfg.NodeName, "drain begun: refusing new work")
	}
}

// InFlight reports the number of requests currently being served.
func (s *Server) InFlight() int64 {
	s.metrics.mu.Lock()
	defer s.metrics.mu.Unlock()
	return s.metrics.c[fInFlight]
}

// Drain waits until no request is in flight or ctx is done.
func (s *Server) Drain(ctx context.Context) error {
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.InFlight() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// statusWriter records the status code a handler wrote. Instances are
// pooled: one is live only between instrument's wrap and its
// requestEnd, and no handler retains its writer past returning.
type statusWriter struct {
	http.ResponseWriter
	status int
	// buf, when non-nil, captures the handler's body instead of passing
	// it through — the remote-traced path must append trace headers
	// after the handler finishes, so the response is held until then.
	buf *bytes.Buffer
	// rec is the request's observability record, embedded by value so
	// the untraced fast path fills it without allocating.
	rec requestRecord
}

var statusWriterPool = sync.Pool{New: func() any { return new(statusWriter) }}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	if w.buf != nil {
		return
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.buf != nil {
		return w.buf.Write(p)
	}
	return w.ResponseWriter.Write(p)
}

// Flush forwards to the underlying writer, preserving http.Flusher
// through the instrumentation wrapper — without this the sweep NDJSON
// stream would buffer until the handler returns. While buffering for
// the remote-traced path it is a no-op: the response is held anyway.
func (w *statusWriter) Flush() {
	if w.buf != nil {
		return
	}
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a route handler with drain refusal, request
// identity, and the request counters. An observability route (isObs:
// /healthz and the obsRoutes) stays reachable during a drain, so
// orchestrators can watch it progress — the request ring, health map
// and journal are precisely the evidence an operator wants while a node
// drains — draws its request IDs from a separate sequence, and is never
// traced or kept in the request ring.
func (s *Server) instrument(route string, isObs bool, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() && !isObs {
			s.metrics.inc(fRequestsTotal)
			s.metrics.inc(fRejectedDraining)
			w.Header().Set("Connection", "close")
			writeErr(w, http.StatusServiceUnavailable, "draining", nil)
			return
		}
		s.metrics.requestStart(route)
		start := time.Now()
		sw := statusWriterPool.Get().(*statusWriter)
		sw.ResponseWriter, sw.status, sw.buf = w, http.StatusOK, nil
		sw.rec = requestRecord{route: route, id: s.mintID(r, isObs)}
		if sw.rec.id.Raw != "" {
			// Echo an inherited ID so the sending node can correlate the
			// hop even when it is not tracing.
			w.Header().Set(RequestIDHeader, sw.rec.id.Raw)
		}
		if r.Header.Get(TraceHeader) != "" && remoteTraceable(route) && sw.rec.id.Raw != "" {
			s.serveRemoteTraced(sw, r, route, h)
		} else if rec, seq := s.sampleTrace(isObs); rec != nil {
			rec.RegisterProcess(0, s.cfg.NodeName)
			sc := rec.NewScope(0, sw.rec.id.String()+" "+route)
			sp := sc.Begin(route, "http")
			h(sw, r.WithContext(trace.NewContext(r.Context(), sc)))
			sp.End()
			s.writeTrace(rec, seq, route)
		} else {
			h(sw, r)
		}
		d := time.Since(start)
		sw.rec.status = sw.status
		sw.rec.unixMS = start.UnixMilli()
		sw.rec.totalUS = d.Microseconds()
		s.metrics.requestEnd(route, d, sw.status, sw.rec.id)
		s.slo.Observe(route, sw.status, sw.rec.totalUS)
		if sw.status == http.StatusTooManyRequests {
			s.recordShed(route, sw.rec.unixMS)
		}
		if !isObs {
			s.requestsMu.Lock()
			s.requests.Push(sw.rec)
			s.requestsMu.Unlock()
		}
		s.logAccess(&sw.rec)
		sw.ResponseWriter = nil
		statusWriterPool.Put(sw)
	}
}

// maxInheritedIDLen bounds an inherited request ID. Cluster-minted IDs
// (<node>-<seq>) are far shorter; the cap only guards against an
// arbitrary client ballooning every log line, ring row, and exemplar.
const maxInheritedIDLen = 64

// validInheritedID reports whether raw may be adopted as this request's
// ID. The value is interpolated verbatim into exemplar labels, trace
// scope names, and access-log records, so it must be bounded and drawn
// from a charset that cannot break the Prometheus exposition (quotes,
// backslashes, braces, whitespace are all rejected). The colon is
// allowed because a cluster node's default name is its advertised
// host:port, so fleet-minted IDs look like "127.0.0.1:9001-7".
func validInheritedID(raw string) bool {
	if raw == "" || len(raw) > maxInheritedIDLen {
		return false
	}
	for i := 0; i < len(raw); i++ {
		switch c := raw[i]; {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c >= '0' && c <= '9', c == '.', c == '_', c == '-', c == ':':
		default:
			return false
		}
	}
	return true
}

// mintID assigns the request its ID: inherited from an upstream cluster
// node when the header carries a valid ID, freshly minted otherwise (a
// malformed or oversized header is ignored, not an error — the request
// still serves, under a local ID). Observability routes draw from their
// own sequence so health polls and scrapes never perturb the
// compute-route numbering.
func (s *Server) mintID(r *http.Request, isObs bool) RequestID {
	if raw := r.Header.Get(RequestIDHeader); validInheritedID(raw) {
		return RequestID{Raw: raw}
	}
	if isObs {
		return RequestID{Node: s.cfg.NodeName, Seq: s.obsSeq.Add(1), Obs: true}
	}
	return RequestID{Node: s.cfg.NodeName, Seq: s.reqSeq.Add(1)}
}

// logAccess emits one structured access-log record for a completed
// request. Off (nil logger) it costs a nil check.
func (s *Server) logAccess(rec *requestRecord) {
	lg := s.cfg.AccessLog
	if lg == nil {
		return
	}
	lg.LogAttrs(context.Background(), slog.LevelInfo, "access",
		slog.String("id", rec.id.String()),
		slog.String("route", rec.route),
		slog.Int("status", rec.status),
		slog.String("decision", decisionNames[rec.decision]),
		slog.Int("hops", rec.hops),
		slog.String("key", rec.key),
		slog.Int64("decode_us", rec.decodeUS),
		slog.Int64("wait_us", rec.waitUS),
		slog.Int64("route_us", rec.routeUS),
		slog.Int64("compute_us", rec.computeUS),
		slog.Int64("total_us", rec.totalUS),
	)
}

// remoteTraceable reports whether a route may serve a remote-traced hop
// — a buffered response with span headers appended after the handler
// returns. Only the cluster-forwardable compute routes qualify: the
// sweep NDJSON stream must keep its per-point Flush semantics (a peer
// never forwards it traced), and observability routes are never traced.
// The header is additionally honored only alongside a valid inherited
// X-Ipcd-Request-Id (checked at the call site) — the peer-shaped
// request signature every cluster forward carries — so a bare external
// X-Ipcd-Trace cannot switch a route onto the buffering path or bypass
// the response cache.
func remoteTraceable(route string) bool {
	return route == "solve" || route == "simulate"
}

// maxTraceSpansHeader bounds the serialized-span response header a
// remote-traced hop returns; a hop whose spans outgrow it returns none
// (the trace merge is best-effort, the response is not).
const maxTraceSpansHeader = 48 << 10

// serveRemoteTraced serves one hop of another node's traced request: a
// fresh wall recorder captures this node's spans while the response is
// held in a buffer, then the serialized spans ride back to the tracing
// node in response headers and the buffered body is replayed verbatim —
// the bytes on the wire are identical to an untraced serve.
func (s *Server) serveRemoteTraced(sw *statusWriter, r *http.Request, route string, h http.HandlerFunc) {
	rec := trace.NewWall(1 << 12)
	rec.RegisterProcess(0, s.cfg.NodeName)
	sc := rec.NewScope(0, sw.rec.id.String()+" "+route)
	sw.buf = new(bytes.Buffer)
	sp := sc.Begin(route, "http")
	h(sw, r.WithContext(trace.NewContext(r.Context(), sc)))
	sp.End()
	hdr := sw.Header()
	hdr.Set(TraceNodeHeader, s.cfg.NodeName)
	if data := rec.MarshalSpans(); len(data) > 0 && len(data) <= maxTraceSpansHeader {
		hdr.Set(TraceSpansHeader, string(data))
	}
	body := sw.buf
	sw.buf = nil
	sw.ResponseWriter.WriteHeader(sw.status)
	sw.ResponseWriter.Write(body.Bytes())
}

// sampleTrace decides whether this request is traced; the zeroth,
// TraceEvery-th, 2·TraceEvery-th, … computing request each gets a fresh
// wall-clock recorder. The observability endpoints are never traced.
func (s *Server) sampleTrace(isObs bool) (*trace.Recorder, int64) {
	if s.cfg.TraceDir == "" || isObs {
		return nil, 0
	}
	n := s.traceSeq.Add(1)
	if (n-1)%int64(s.cfg.TraceEvery) != 0 {
		return nil, 0
	}
	return trace.NewWall(1 << 12), n
}

// writeTrace persists a sampled request's trace. Tracing is
// best-effort: a write failure loses the sample, never the response.
func (s *Server) writeTrace(rec *trace.Recorder, seq int64, route string) {
	var buf bytes.Buffer
	if err := rec.WriteChrome(&buf); err != nil {
		return
	}
	name := fmt.Sprintf("req-%d-%s.json", seq, route)
	_ = os.WriteFile(filepath.Join(s.cfg.TraceDir, name), buf.Bytes(), 0o644)
}

// writeDet writes a deterministic JSON response.
func writeDet(w http.ResponseWriter, status int, header map[string]string, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	for k, v := range header {
		w.Header().Set(k, v)
	}
	w.WriteHeader(status)
	w.Write(body)
}

// writeErr writes a deterministic JSON error body.
func writeErr(w http.ResponseWriter, status int, msg string, extra map[string]any) {
	body := map[string]any{"error": msg}
	for k, v := range extra {
		body[k] = v
	}
	writeDet(w, status, nil, marshalDet(body))
}

// errBody builds the flightResult for an error.
func errResult(status int, msg string) flightResult {
	return flightResult{status: status, body: marshalDet(map[string]any{"error": msg})}
}

// admit takes a worker slot for one computation, timing the wait as the
// request's admission phase. When the admission queue is full, or ctx
// ends while queued, release is nil and refused is the 429 or 503 to
// answer instead.
func (s *Server) admit(ctx context.Context, rec *requestRecord) (release func(), refused flightResult) {
	sp := trace.ScopeFrom(ctx).Begin("admission.wait", "serve")
	t0 := time.Now()
	full := s.admitted.Add(1) > int64(s.cfg.Workers+s.cfg.QueueDepth)
	admitted := false
	if !full {
		select {
		case s.slots <- struct{}{}:
			admitted = true
		case <-ctx.Done():
		}
	}
	rec.setWaitUS(time.Since(t0))
	sp.End()
	if admitted {
		return func() {
			<-s.slots
			s.admitted.Add(-1)
		}, flightResult{}
	}
	s.admitted.Add(-1)
	if full {
		return nil, flightResult{
			status: http.StatusTooManyRequests,
			header: map[string]string{"Retry-After": "1"},
			body:   marshalDet(map[string]any{"error": "admission queue full"}),
		}
	}
	return nil, errResult(http.StatusServiceUnavailable, "request cancelled while queued")
}

// queueDepth reports how many admitted computations are waiting for a
// worker slot right now.
func (s *Server) queueDepth() int64 {
	d := s.admitted.Load() - int64(len(s.slots))
	if d < 0 {
		d = 0
	}
	return d
}

// coalesce funnels one computation through the flight group and the
// admission queue: concurrent requests with the same key share one
// leader's computation (and its bytes); the leader itself runs on the
// bounded worker pool under the request-timeout context.
//
// With a cluster configured, the leader first asks the cluster tier to
// serve the key — held peer bytes or a forward to the owning peer —
// before taking a worker slot: routed requests cost this node I/O, not
// compute, so they never occupy the admission queue. Only a locally
// owned (or cluster-unanswerable) key admits and computes here.
// A point's fresh 200 (spec.Body set: solve and simulate) is stored in
// the response cache for the fast path and offered back for
// replication. A cluster-routed body is never stored here: the cluster
// tier keeps it as peer bytes, which the fast path serves only where
// ServeHeld allows.
func (s *Server) coalesce(w http.ResponseWriter, r *http.Request, spec ComputeSpec, fn func(ctx context.Context) flightResult) {
	sc := trace.ScopeFrom(r.Context())
	rec := recordOf(w)
	res, leader, err := s.flights.do(r.Context(), spec.Key, func() flightResult {
		if s.cfg.Cluster != nil && spec.Body != nil {
			// The routing deadline is the server's, like the computation's
			// below: a forward keeps serving the leader's followers even if
			// the leader's own client disconnects. The trace scope rides
			// the routing context so the forward's peer-RTT span and the
			// owner's merged spans land on this request's track.
			rctx, rcancel := context.WithTimeout(context.Background(), s.cfg.RequestTimeout)
			rctx = trace.NewContext(rctx, sc)
			sp := sc.Begin("cluster.route", "serve")
			t0 := time.Now()
			rr, served := s.cfg.Cluster.Route(rctx, spec)
			rec.setRouteUS(time.Since(t0))
			sp.End()
			rcancel()
			if served {
				s.metrics.inc(fClusterServed)
				d := decisionFromName(rr.Decision)
				if d == decisionNone {
					d = decisionForwarded
				}
				rec.setDecision(d)
				return flightResult{status: rr.Status, header: rr.Header, body: rr.Body}
			}
			// An unserved route may still classify the request — a spent
			// hop budget means this local compute is the hop-capped kind.
			rec.setDecision(decisionFromName(rr.Decision))
		}
		release, refused := s.admit(r.Context(), rec)
		if release == nil {
			return refused
		}
		defer release()
		s.metrics.inc(fLeaders)
		rec.defaultDecision(decisionLocalCompute)
		if s.testHookAdmitted != nil {
			s.testHookAdmitted(spec.Key)
		}
		// The computation deadline is the server's, detached from the
		// leader's connection: a leader whose client disconnects must
		// still finish for its followers. The trace scope (if any) rides
		// along so the solver's spans land on this request's track.
		ctx, cancel := context.WithTimeout(context.Background(), s.cfg.RequestTimeout)
		defer cancel()
		t1 := time.Now()
		res := fn(trace.NewContext(ctx, sc))
		rec.setComputeUS(time.Since(t1))
		if res.status == http.StatusOK && spec.Body != nil {
			s.respCache.putLocal(spec.Key, res.body)
			if s.cfg.Cluster != nil {
				s.cfg.Cluster.Offer(spec, res.body)
			}
		}
		return res
	})
	if err != nil {
		// The follower's client went away while waiting; the connection
		// is dead, but answer coherently anyway.
		writeErr(w, http.StatusServiceUnavailable, "request cancelled", nil)
		return
	}
	if !leader {
		s.metrics.inc(fCoalesced)
		rec.setDecision(decisionFlightFollower)
		// A traced follower's wait is the whole story of its request.
		sc.Instant("coalesced", "serve")
	}
	writeDet(w, res.status, res.header, res.body)
}

// decodeState is the pooled per-request decode scratch: the body bytes
// and a resettable reader the JSON decoder consumes them through.
// (json.Decoder itself has no Reset, so the decoder is the one small
// allocation the decode path keeps.)
type decodeState struct {
	buf []byte
	rd  bytes.Reader
}

var decodePool = sync.Pool{
	New: func() any { return &decodeState{buf: make([]byte, 0, 4096)} },
}

// maxBodyBytes bounds a request body.
const maxBodyBytes = 1 << 20

// maxPooledDecodeBuf bounds the buffers the pool retains: a rare
// near-maxBodyBytes request must not pin megabytes per pooled slot.
const maxPooledDecodeBuf = 64 << 10

// errBodyTooLarge carries the exact message http.MaxBytesReader used
// here before pooling, so the client-visible 400 body is unchanged.
var errBodyTooLarge = errors.New("http: request body too large")

// readBounded appends r's bytes to dst until EOF, failing once more
// than max bytes arrive.
func readBounded(dst []byte, r io.Reader, max int64) ([]byte, error) {
	for {
		if int64(len(dst)) > max {
			return dst, errBodyTooLarge
		}
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			if int64(len(dst)) > max {
				return dst, errBodyTooLarge
			}
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// decodeBody decodes a JSON request body with a size limit, through
// pooled read buffers. Decoder semantics are preserved exactly (one
// value decoded, unknown fields rejected, trailing bytes tolerated).
// The body is read through EOF, which is when net/http starts watching
// the connection: a sweep relies on it to have a client disconnect
// cancel its in-flight solve.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, into any) bool {
	ds := decodePool.Get().(*decodeState)
	buf, err := readBounded(ds.buf[:0], r.Body, maxBodyBytes)
	ds.buf = buf
	if err == nil {
		ds.rd.Reset(buf)
		dec := json.NewDecoder(&ds.rd)
		dec.DisallowUnknownFields()
		err = dec.Decode(into)
	}
	if cap(ds.buf) <= maxPooledDecodeBuf {
		decodePool.Put(ds)
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: "+err.Error(), nil)
		return false
	}
	return true
}

// solveRequest is the body of POST /v1/solve: one architecture I-IV plus
// the §6.3 conversation-workload parameters.
type solveRequest struct {
	Arch            int     `json:"arch"`
	Conversations   int     `json:"conversations"`
	ServerComputeUS float64 `json:"server_compute_us"`
	Hosts           int     `json:"hosts"`
	NonLocal        bool    `json:"non_local"`
}

// The largest architecture and host count a request may name.
const maxArch, maxHosts = 4, 4

// validate normalizes and bounds-checks the workload point. The caps
// protect the daemon from state-space explosions a single request could
// otherwise trigger.
func (q *solveRequest) validate() error {
	if q.Arch < 1 || q.Arch > maxArch {
		return errors.New("arch must be 1..4")
	}
	if q.Conversations < 1 || q.Conversations > 8 {
		return errors.New("conversations must be 1..8")
	}
	if q.Hosts == 0 {
		q.Hosts = 1
	}
	if q.Hosts < 1 || q.Hosts > maxHosts {
		return errors.New("hosts must be 1..4")
	}
	if q.ServerComputeUS < 0 || q.ServerComputeUS > 1e7 {
		return errors.New("server_compute_us must be in [0, 1e7]")
	}
	return nil
}

// system is the Server's System for a validated arch and host count.
func (s *Server) system(arch, hosts int) *core.System {
	return s.systems[arch-1][hosts-1]
}

func (q *solveRequest) workload() core.Workload {
	return core.Workload{
		Conversations:   q.Conversations,
		ServerComputeUS: q.ServerComputeUS,
		NonLocal:        q.NonLocal,
	}
}

// echo is the request part of a response body.
func (q *solveRequest) echo() map[string]any {
	return map[string]any{
		"arch":              q.Arch,
		"conversations":     q.Conversations,
		"hosts":             q.Hosts,
		"non_local":         q.NonLocal,
		"server_compute_us": q.ServerComputeUS,
	}
}

// canonicalBody re-encodes the validated request deterministically, so a
// forwarded request carries one canonical byte form regardless of how
// the client formatted it (defaults applied, keys sorted, floats fixed).
func (q *solveRequest) canonicalBody() []byte {
	return marshalDet(q.echo())
}

// keyBufLen sizes the stack buffer a compute route builds its flight
// key in; every validated solve or simulate key fits.
const keyBufLen = 128

// appendPoint appends the flight-key fields of a validated workload
// point to dst after the route name, each formatted as canonicalBody
// echoes it (floats shortest-round-trip), so two validated requests
// share a key exactly when they share a canonical body.
func (q *solveRequest) appendPoint(dst []byte, route string) []byte {
	dst = append(dst, route...)
	dst = append(dst, "|a="...)
	dst = strconv.AppendInt(dst, int64(q.Arch), 10)
	dst = append(dst, "|n="...)
	dst = strconv.AppendInt(dst, int64(q.Conversations), 10)
	dst = append(dst, "|h="...)
	dst = strconv.AppendInt(dst, int64(q.Hosts), 10)
	dst = append(dst, "|x="...)
	dst = strconv.AppendFloat(dst, q.ServerComputeUS, 'g', -1, 64)
	dst = append(dst, "|nl="...)
	return strconv.AppendBool(dst, q.NonLocal)
}

// appendKey appends the solve flight key, e.g.
// "solve|a=2|n=1|h=1|x=1140|nl=false". It is the coalescing, response
// cache and ring key of the request.
func (q *solveRequest) appendKey(dst []byte) []byte { return q.appendPoint(dst, "solve") }

// SolveKey is the flight key /v1/solve gives one point, with the hosts
// default applied; it fails where the route would answer 400. Exported
// so cluster tooling and tests can locate a point's owner on the ring
// without re-deriving the format.
func SolveKey(arch, conversations, hosts int, serverComputeUS float64, nonLocal bool) (string, error) {
	q := solveRequest{Arch: arch, Conversations: conversations, Hosts: hosts,
		ServerComputeUS: serverComputeUS, NonLocal: nonLocal}
	if err := q.validate(); err != nil {
		return "", err
	}
	return string(q.appendKey(nil)), nil
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var q solveRequest
	hops, ok := s.decodePoint(w, r, &q)
	if !ok {
		return
	}
	var kb [keyBufLen]byte
	key := q.appendKey(kb[:0])
	if s.serveCached(w, r, key) {
		return
	}
	s.computePoint(w, r, "solve", string(key), hops, q.canonicalBody, func(ctx context.Context) flightResult {
		pred, err := s.system(q.Arch, q.Hosts).AnalyzeContext(ctx, q.workload())
		if err != nil {
			return solveError(err)
		}
		sp := trace.ScopeFrom(ctx).Begin("encode", "serve")
		body := q.echo()
		body["offered_load"] = pred.OfferedLoad
		body["round_trip_us"] = pred.RoundTripUS
		body["states"] = pred.States
		body["throughput_rps"] = pred.Throughput
		res := flightResult{status: http.StatusOK, body: marshalDet(body)}
		sp.End()
		return res
	})
}

// decodePoint runs a point route's preamble: the hop check, then
// decodeValid. ok is false once it has answered.
func (s *Server) decodePoint(w http.ResponseWriter, r *http.Request, q interface{ validate() error }) (hops int, ok bool) {
	hops, rejected := s.checkHops(w, r)
	if rejected {
		return 0, false
	}
	recordOf(w).setHops(hops)
	return hops, s.decodeValid(w, r, q)
}

// decodeValid decodes the request body into q, timed as the request's
// decode phase, and validates it. ok is false once it has answered.
func (s *Server) decodeValid(w http.ResponseWriter, r *http.Request, q interface{ validate() error }) (ok bool) {
	rec := recordOf(w)
	sp := trace.ScopeFrom(r.Context()).Begin("decode", "serve")
	t0 := time.Now()
	decoded := s.decodeBody(w, r, q)
	rec.setDecodeUS(time.Since(t0))
	sp.End()
	if !decoded {
		return false
	}
	if err := q.validate(); err != nil {
		writeErr(w, http.StatusBadRequest, err.Error(), nil)
		return false
	}
	return true
}

// serveCached is the zero-allocation fast path: it answers from the
// response cache when key holds a locally computed body, or peer bytes
// the cluster tier lets this node serve (ServeHeld: it does not own the
// key), which count as a cluster-served replica hit. The key is the
// caller's stack bytes; the router is asked with the entry's own
// string, so the stack buffer never escapes through the interface call.
// Traced requests take the full path: a sampled trace exists to show
// the pipeline. Reports whether it answered.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, key []byte) bool {
	if sc := trace.ScopeFrom(r.Context()); sc != nil {
		s.respCache.TraceBypass()
		sc.Instant("respcache.bypass", "serve")
		return false
	}
	ckey, body, local, ok := s.respCache.get(key)
	if !ok {
		return false
	}
	d := decisionRespCacheHit
	if !local {
		served := s.cfg.Cluster != nil && s.cfg.Cluster.ServeHeld(ckey)
		s.respCache.countHeld(served)
		if !served {
			return false
		}
		s.metrics.inc(fClusterServed)
		d = decisionReplicaHit
	}
	rec := recordOf(w)
	rec.setKey(ckey)
	rec.setDecision(d)
	writeDet(w, http.StatusOK, nil, body)
	return true
}

// computePoint serves a fast-path miss through the flight group under
// key, with the canonical body a peer can replay it from.
func (s *Server) computePoint(w http.ResponseWriter, r *http.Request, route, key string, hops int,
	canonical func() []byte, fn func(ctx context.Context) flightResult) {
	rec := recordOf(w)
	rec.setKey(key)
	sp := trace.ScopeFrom(r.Context()).Begin("forward.encode", "serve")
	body := canonical()
	sp.End()
	s.coalesce(w, r, ComputeSpec{Route: route, Key: key, Body: body, Hops: hops, RequestID: rec.idString()}, fn)
}

// RespCache exposes the preencoded-response cache. The cluster tier
// stores peer bytes — replica pushes and the answers its forwards bring
// back — into it and serves them from it.
func (s *Server) RespCache() *RespCache { return s.respCache }

// simulateRequest is the body of POST /v1/simulate: the workload point
// plus the replication ensemble. The seed is part of the request, so
// responses are bit-deterministic: same request, same bytes.
type simulateRequest struct {
	solveRequest
	Seconds      int64  `json:"seconds"`
	Seed         uint64 `json:"seed"`
	Replications int    `json:"replications"`
}

func (q *simulateRequest) validate() error {
	if err := q.solveRequest.validate(); err != nil {
		return err
	}
	if q.Seconds == 0 {
		q.Seconds = 10
	}
	if q.Seconds < 1 || q.Seconds > 600 {
		return errors.New("seconds must be 1..600")
	}
	if q.Seed == 0 {
		q.Seed = 1
	}
	if q.Replications == 0 {
		q.Replications = 1
	}
	if q.Replications < 1 || q.Replications > 64 {
		return errors.New("replications must be 1..64")
	}
	return nil
}

// canonicalBody re-encodes the validated simulate request
// deterministically for forwarding, defaults applied.
func (q *simulateRequest) canonicalBody() []byte {
	body := q.echo()
	body["seconds"] = q.Seconds
	body["seed"] = q.Seed
	body["replications"] = q.Replications
	return marshalDet(body)
}

// appendKey appends the simulate flight key: the point's fields plus
// the ensemble's.
func (q *simulateRequest) appendKey(dst []byte) []byte {
	dst = q.appendPoint(dst, "sim")
	dst = append(dst, "|s="...)
	dst = strconv.AppendInt(dst, q.Seconds, 10)
	dst = append(dst, "|seed="...)
	dst = strconv.AppendUint(dst, q.Seed, 10)
	dst = append(dst, "|reps="...)
	return strconv.AppendInt(dst, int64(q.Replications), 10)
}

// handleSimulate serves seeded simulations, which are deterministic
// too: the same fast path and flight as solve, with the ensemble
// parameters in the key.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var q simulateRequest
	hops, ok := s.decodePoint(w, r, &q)
	if !ok {
		return
	}
	var kb [keyBufLen]byte
	key := q.appendKey(kb[:0])
	if s.serveCached(w, r, key) {
		return
	}
	s.computePoint(w, r, "simulate", string(key), hops, q.canonicalBody, func(ctx context.Context) flightResult {
		sys := core.New(core.Arch(q.Arch), core.WithHosts(q.Hosts), core.WithSeed(q.Seed))
		// One worker per ensemble: the HTTP pool is the concurrency bound.
		meas, err := sys.MeasureManyContext(ctx, q.workload(), q.Seconds, q.Replications, 1)
		if err != nil {
			return solveError(err)
		}
		body := q.echo()
		body["replications"] = q.Replications
		body["round_trip_us"] = meas.RoundTripUS
		body["round_trips"] = meas.RoundTrips
		body["seconds"] = q.Seconds
		body["seed"] = q.Seed
		body["throughput_rps"] = meas.Throughput
		return flightResult{status: http.StatusOK, body: marshalDet(body)}
	})
}

// solveError maps a computation error to a response: deadline and
// cancellation become 504, everything else 500.
func solveError(err error) flightResult {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return errResult(http.StatusGatewayTimeout, "deadline exceeded: "+err.Error())
	}
	return errResult(http.StatusInternalServerError, err.Error())
}

func (s *Server) handleExperimentList(w http.ResponseWriter, _ *http.Request) {
	var list []any
	for _, e := range experiments.All() {
		list = append(list, map[string]any{"id": e.ID, "title": e.Title})
	}
	writeDet(w, http.StatusOK, nil, marshalDet(map[string]any{"experiments": list}))
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e, ok := experiments.ByID(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("unknown experiment %q", id),
			map[string]any{"valid_ids": experimentIDs()})
		return
	}
	quick := r.URL.Query().Get("full") != "1"
	key := fmt.Sprintf("exp|%s|quick=%t", e.ID, quick)
	// Experiments are neither cluster-routed nor response-cached (Body
	// nil): the registry is identical on every node and the outputs are
	// large — coalescing in-process is enough.
	s.coalesce(w, r, ComputeSpec{Route: "experiment", Key: key}, func(ctx context.Context) flightResult {
		// Experiments drive the registry's own Run functions, which
		// pre-date the context plumbing; the worker-pool bound and the
		// quick default keep them tame.
		var buf bytes.Buffer
		if err := e.Run(&buf, experiments.Config{Quick: quick}); err != nil {
			return solveError(err)
		}
		return flightResult{status: http.StatusOK, body: marshalDet(map[string]any{
			"id":     e.ID,
			"output": buf.String(),
			"quick":  quick,
			"title":  e.Title,
		})}
	})
}

// experimentIDs lists the registry ids in paper order.
func experimentIDs() []string {
	var ids []string
	for _, e := range experiments.All() {
		ids = append(ids, e.ID)
	}
	return ids
}

// handleHealthz keeps the bare 200-ok / 503-draining status contract
// probes rely on, with a JSON body identifying the node: name, cluster
// membership epoch (0 single-node), uptime, and build version.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status, code := "ok", http.StatusOK
	if s.draining.Load() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	var epoch int64
	if s.cfg.Cluster != nil {
		epoch = s.cfg.Cluster.Epoch()
	}
	writeDet(w, code, nil, marshalDet(map[string]any{
		"status":   status,
		"node":     s.cfg.NodeName,
		"epoch":    epoch,
		"uptime_s": int64(time.Since(s.start).Seconds()),
		"version":  s.cfg.Version,
	}))
}

// acceptsOpenMetrics reports whether the scraper negotiated the
// OpenMetrics exposition format. Prometheus offers it explicitly
// ("application/openmetrics-text;version=1.0.0;q=...") when configured
// for it; anything else gets the legacy 0.0.4 text format.
func acceptsOpenMetrics(accept string) bool {
	return strings.Contains(accept, "application/openmetrics-text")
}

// serveExposition answers GET /metrics?format=prometheus. Exemplars are
// an OpenMetrics construct — the legacy text parser fails the whole
// scrape on them — so the dialect follows the Accept header:
// OpenMetrics (with exemplars and # EOF) only when the scraper asked for
// it.
func (s *Server) serveExposition(w http.ResponseWriter, r *http.Request) {
	if acceptsOpenMetrics(r.Header.Get("Accept")) {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_ = s.WriteOpenMetrics(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = s.WritePrometheus(w)
}

// SetAdmittedTestHook installs a hook that runs in a computation leader
// after it holds a worker slot and before it computes, with the flight
// key. A test aid (the cluster harness uses it to hold an owner's solve
// in flight deterministically); never set it in production.
func (s *Server) SetAdmittedTestHook(fn func(key string)) { s.testHookAdmitted = fn }

// FlightWaiters reports the followers blocked on key's open flight — a
// test aid for deterministic coalescing assertions across nodes.
func (s *Server) FlightWaiters(key string) int64 { return s.flights.waitersFor(key) }
