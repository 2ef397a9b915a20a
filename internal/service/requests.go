package service

import (
	"net/http"
	"strconv"
	"time"
)

// Request identity and the recent-request ring. Every request gets an
// ID at ingress — minted from the node's name and a per-node sequence,
// or inherited verbatim when an upstream cluster node already named it
// (X-Ipcd-Request-Id) — so one logical request keeps one ID across
// every hop it takes through the fleet. The last recentRequests
// completed requests are retained in a fixed-capacity ring served by
// GET /debug/requests: id, route, coalescing key, status, the routing
// decision that answered it, and the per-phase durations, which is the
// paper's cost-decomposition instinct applied to the serving tier.

// RequestID names one request for cross-node observability. The zero
// value renders as "" (no ID assigned).
type RequestID struct {
	Node string // minting node's name (empty when inherited)
	Seq  int64  // per-node sequence number
	Obs  bool   // minted on an observability route (separate sequence)
	Raw  string // inherited verbatim from X-Ipcd-Request-Id
}

// String renders the ID: the inherited form verbatim, or
// "<node>-<seq>" ("<node>-o<seq>" for observability routes — health
// polls and scrapes draw from their own sequence so the compute-route
// numbering stays reproducible run to run).
func (id RequestID) String() string {
	if id.Raw != "" {
		return id.Raw
	}
	if id.Node == "" {
		return ""
	}
	if id.Obs {
		return id.Node + "-o" + strconv.FormatInt(id.Seq, 10)
	}
	return id.Node + "-" + strconv.FormatInt(id.Seq, 10)
}

// IsZero reports whether no ID was assigned.
func (id RequestID) IsZero() bool { return id == RequestID{} }

// decision classifies how a request was ultimately answered.
type decision uint8

const (
	decisionNone           decision = iota
	decisionRespCacheHit            // preencoded-response cache fast path
	decisionFlightFollower          // coalesced onto another request's flight
	decisionForwarded               // served by the key's owning peer
	decisionReplicaHit              // served from peer bytes held here (pushed or forwarded)
	decisionHopCappedLocal          // unowned key computed locally: hop budget spent
	decisionLocalCompute            // computed locally by this request's leader
)

// Decision names, as rendered in /debug/requests and access logs and
// carried in RoutedResult.Decision by the cluster tier.
const (
	DecisionRespCacheHit   = "resp_cache_hit"
	DecisionFlightFollower = "flight_follower"
	DecisionForwarded      = "forwarded"
	DecisionReplicaHit     = "replica_hit"
	DecisionHopCappedLocal = "hop_capped_local"
	DecisionLocalCompute   = "local_compute"
)

var decisionNames = [...]string{
	"", DecisionRespCacheHit, DecisionFlightFollower, DecisionForwarded,
	DecisionReplicaHit, DecisionHopCappedLocal, DecisionLocalCompute,
}

func decisionFromName(name string) decision {
	for i := 1; i < len(decisionNames); i++ {
		if decisionNames[i] == name {
			return decision(i)
		}
	}
	return decisionNone
}

// requestRecord is one request's observability row. It is embedded by
// value in the pooled statusWriter and copied by value into the ring,
// so filling it never allocates on the untraced fast path; the strings
// it holds (route literals, cache keys, node names) are shared, not
// copied.
type requestRecord struct {
	id        RequestID
	route     string
	key       string
	decision  decision
	status    int
	hops      int
	unixMS    int64
	decodeUS  int64
	waitUS    int64
	routeUS   int64
	computeUS int64
	totalUS   int64
}

// The setters are nil-safe: handlers reach the record through their
// ResponseWriter (recordOf), which yields nil when a test drives a
// handler without the instrument wrapper.

func (rec *requestRecord) setKey(key string) {
	if rec != nil {
		rec.key = key
	}
}

func (rec *requestRecord) setHops(hops int) {
	if rec != nil {
		rec.hops = hops
	}
}

func (rec *requestRecord) setDecision(d decision) {
	if rec != nil && d != decisionNone {
		rec.decision = d
	}
}

// defaultDecision sets d only when no earlier stage decided — the
// leader's local compute must not overwrite a hop-cap classification.
func (rec *requestRecord) defaultDecision(d decision) {
	if rec != nil && rec.decision == decisionNone {
		rec.decision = d
	}
}

func (rec *requestRecord) setDecodeUS(d time.Duration) {
	if rec != nil {
		rec.decodeUS = d.Microseconds()
	}
}

func (rec *requestRecord) setWaitUS(d time.Duration) {
	if rec != nil {
		rec.waitUS = d.Microseconds()
	}
}

func (rec *requestRecord) setRouteUS(d time.Duration) {
	if rec != nil {
		rec.routeUS = d.Microseconds()
	}
}

func (rec *requestRecord) setComputeUS(d time.Duration) {
	if rec != nil {
		rec.computeUS = d.Microseconds()
	}
}

func (rec *requestRecord) idString() string {
	if rec == nil {
		return ""
	}
	return rec.id.String()
}

// recordOf reaches the instrumentation's per-request record through the
// handler's ResponseWriter. Handlers always run behind instrument in
// production, so the assertion succeeds; a bare writer yields nil and
// every record method no-ops.
func recordOf(w http.ResponseWriter) *requestRecord {
	if sw, ok := w.(*statusWriter); ok {
		return &sw.rec
	}
	return nil
}

// requestsJSON renders this node's own /debug/requests body — the local
// scope — oldest request first.
func (s *Server) requestsJSON() []byte {
	s.requestsMu.Lock()
	recs, capacity := s.requests.Slice(), s.requests.Cap()
	s.requestsMu.Unlock()
	list := make([]any, 0, len(recs))
	for i := range recs {
		rec := &recs[i]
		list = append(list, map[string]any{
			"id":         rec.id.String(),
			"route":      rec.route,
			"key":        rec.key,
			"decision":   decisionNames[rec.decision],
			"status":     rec.status,
			"hops":       rec.hops,
			"unix_ms":    rec.unixMS,
			"decode_us":  rec.decodeUS,
			"wait_us":    rec.waitUS,
			"route_us":   rec.routeUS,
			"compute_us": rec.computeUS,
			"total_us":   rec.totalUS,
		})
	}
	return marshalDet(map[string]any{
		"capacity": int64(capacity),
		"requests": list,
	})
}
