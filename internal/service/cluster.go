package service

import (
	"context"
	"net/http"
	"strconv"
)

// The cluster tier hook. internal/cluster implements ClusterRouter and a
// Server configured with one becomes a member of a consistent-hash ring
// over the coalescing keyspace: computations whose key this node does
// not own are forwarded to the owning peer (where they coalesce with
// the owner's own in-flight solves — cluster-wide singleflight), and
// locally computed results are offered back for replication to the
// key's next replica on the ring. Because every response body is
// deterministic JSON, a forwarded or replicated answer is byte-identical
// to the one this node would have computed itself, which is what makes
// the routing transparent — and what lets a non-owner keep the answer
// it was sent and serve it again without any invalidation.

// HopsHeader carries the forwarding hop count on intra-cluster
// requests. A client request has no header (zero hops); each forward
// increments it.
const HopsHeader = "X-Ipcd-Hops"

// RequestIDHeader carries a request's ID across cluster hops (forwards
// and replica pushes), so one logical request keeps one ID in every
// node's logs, ring, and exemplars. A receiving node inherits the
// header's value verbatim and echoes it on the response.
const RequestIDHeader = "X-Ipcd-Request-Id"

// TraceHeader marks a forwarded request as traced by the sending node:
// the receiver serves it on its untraced path, watched by a private span
// recorder, and returns the serialized spans in the TraceSpansHeader
// trailer.
const TraceHeader = "X-Ipcd-Trace"

// TraceNodeHeader names the responding node on a remote-traced
// response; it becomes the merged trace's process-lane name.
const TraceNodeHeader = "X-Ipcd-Trace-Node"

// TraceSpansHeader is the trailer that carries the responding node's
// serialized spans (trace.Recorder.MarshalSpans) after a remote-traced
// response's body.
const TraceSpansHeader = "X-Ipcd-Trace-Spans"

// MaxHops bounds the forwarding chain: a request arriving with
// HopsHeader >= MaxHops is rejected outright (508 Loop Detected), so a
// misconfigured ring — two nodes each believing the other owns a key —
// can never loop a request. One hop is all a correct ring needs.
const MaxHops = 2

// ComputeSpec names one forwardable computation: the route it came in
// on, its coalescing key, the canonical request body a peer can replay
// it from, and the hop count it arrived with.
type ComputeSpec struct {
	Route     string // route name: "solve" or "simulate"
	Key       string // the flight key: the validated request parameters
	Body      []byte // canonical JSON request body, replayable on a peer
	Hops      int    // forwarding hops already taken
	RequestID string // the request's ID, propagated on forwards and pushes
}

// RoutedResult is a cluster-served response: the owner's (or a
// replica's) deterministic bytes, plus how the cluster answered it
// (Decision — one of the Decision* names — feeds /debug/requests).
type RoutedResult struct {
	Status   int
	Header   map[string]string
	Body     []byte
	Decision string
}

// ClusterRouter is implemented by the cluster tier (internal/cluster).
// A nil ClusterRouter in Config means single-node operation.
type ClusterRouter interface {
	// ServeHeld reports whether this node may answer key from the peer
	// bytes its response cache holds for it (pushed by the owner or kept
	// from an earlier forward) — that is, whether it does not own key on
	// the current ring — and counts the replica hit when it may. The
	// fast path asks it with the entry's own key string; an owner falls
	// through to compute.
	ServeHeld(key string) bool
	// Route serves spec remotely when this node does not own its key,
	// by a forward to the owning peer. It applies ServeHeld's owner
	// check. ok is false when the key is locally owned — or the cluster
	// cannot answer (owner unreachable, draining, hop budget spent) —
	// and the caller must compute locally; local compute is always
	// byte-equivalent. A served body is the router's to keep: the
	// serving layer never stores it.
	Route(ctx context.Context, spec ComputeSpec) (res RoutedResult, ok bool)
	// Offer hands a locally computed 200 result to the cluster for
	// asynchronous replication to the key's replica node.
	Offer(spec ComputeSpec, body []byte)
	// MetricsSnapshot reports the node's cluster counters as a
	// deterministically encodable tree (merged into GET /metrics).
	MetricsSnapshot() map[string]any
	// Epoch reports the membership epoch: how many membership changes
	// this node has applied since start. /healthz echoes it so an
	// operator can spot a node whose view of the ring has diverged.
	Epoch() int64
	// HealthSnapshot reports this node's view of each peer's health —
	// one deterministically encodable entry per peer, carrying unix_ms
	// (the peer's last state transition) so the cluster merge orders
	// entries like every other timeline. Nil while no prober runs.
	HealthSnapshot() []map[string]any
	// FanOut collects path's local-scope body from every member: self
	// contributes the bytes passed in, peers answer an HTTP GET, and a
	// peer that cannot be reached or answers non-200 is left out of
	// Bodies. The ?scope=cluster views merge the result.
	FanOut(ctx context.Context, path string, self []byte) Fanout
}

// checkHops parses the request's forwarding hop count into its record
// and rejects the request when the hop budget is spent, so a 508's
// record names the count that caused it. It reports the parsed count
// and whether the request was rejected (the response has been written).
func (s *Server) checkHops(w http.ResponseWriter, r *http.Request) (hops int, rejected bool) {
	h := headerValue(r.Header, HopsHeader)
	if h == "" {
		return 0, false
	}
	n, err := strconv.Atoi(h)
	if err != nil || n < 0 {
		writeErr(w, http.StatusBadRequest, "malformed "+HopsHeader+" header", nil)
		return 0, true
	}
	recordOf(w).setHops(n)
	if n >= MaxHops {
		s.metrics.inc(fRejectedHops)
		writeErr(w, http.StatusLoopDetected, "forwarding hop limit exceeded",
			map[string]any{"hops": n, "max_hops": MaxHops})
		return n, true
	}
	return n, false
}
