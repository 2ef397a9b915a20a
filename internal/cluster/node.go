package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/trace"
)

// Config tunes one cluster node.
type Config struct {
	// Self is this node's advertised base URL — the address peers use
	// to reach it (its cluster listener when one is configured, its
	// serving listener otherwise). Required; it is the node's identity
	// on the ring.
	Self string
	// Peers is the static member list: base URLs of the other nodes
	// (Self may be included; it is deduplicated). All nodes that agree
	// on the member set agree on every key's owner.
	Peers []string
	// Replicas is how many successor nodes beyond the owner receive a
	// hot entry. 0 means 1; negative disables replication.
	Replicas int
	// Client issues intra-cluster HTTP requests. Nil means a dedicated
	// client with pooled connections.
	Client *http.Client
	// Journal, when non-nil, records membership changes and peer health
	// transitions. Share it with service.Config.Journal so one node's
	// events land in one ring.
	Journal *obs.Journal
}

func (c Config) withDefaults() (Config, error) {
	if c.Self == "" {
		return c, errors.New("cluster: Config.Self is required")
	}
	if c.Replicas == 0 {
		c.Replicas = 1
	}
	if c.Replicas < 0 {
		c.Replicas = 0
	}
	if c.Client == nil {
		c.Client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 16,
		}}
	}
	return c, nil
}

// controlTimeout bounds one membership, replication or fan-out call.
const controlTimeout = 5 * time.Second

// Local is the node's own serving core — implemented by
// *service.Server. The node serves its handler beside the cluster
// endpoints and stores/serves peer bytes (replica pushes and kept
// forward answers) through its preencoded-response cache — one cache
// for both the local fast path and the cluster tier.
type Local interface {
	Handler() http.Handler
	RespCache() *service.RespCache
}

// Node is one member of the cluster tier. It implements
// service.ClusterRouter; wire it into service.Config.Cluster, then
// Bind the resulting server back so the node can mount and introspect
// it.
type Node struct {
	cfg   Config
	self  string
	local Local

	mu      sync.Mutex // guards members and the ring swap
	members map[string]bool
	ring    atomic.Pointer[Ring]
	epoch   atomic.Int64 // bumped on every membership change

	journal  *obs.Journal
	healthMu sync.Mutex // guards health; obs.PeerHealth is not internally locked
	health   map[string]*obs.PeerHealth

	counts [len(counters)]atomic.Int64 // indexed like counters
}

var _ service.ClusterRouter = (*Node)(nil)

// New creates a Node with the static member set Peers ∪ {Self}.
func New(cfg Config) (*Node, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	n := &Node{
		cfg:     cfg,
		self:    cfg.Self,
		members: map[string]bool{cfg.Self: true},
		journal: cfg.Journal,
		health:  map[string]*obs.PeerHealth{},
	}
	for _, p := range cfg.Peers {
		if p != "" {
			n.members[p] = true
		}
	}
	n.rebuildRingLocked()
	return n, nil
}

// Bind attaches the node's serving core. Must be called once, before
// Handler and before the node routes a request.
func (n *Node) Bind(local Local) { n.local = local }

// Self reports this node's advertised URL.
func (n *Node) Self() string { return n.self }

// Members reports the current member set, sorted.
func (n *Node) Members() []string { return n.ring.Load().Members() }

// Epoch reports the membership epoch: the number of membership changes
// this node has applied since start.
func (n *Node) Epoch() int64 { return n.epoch.Load() }

// OwnerOf reports which member owns a flight key — a test and
// diagnostics aid.
func (n *Node) OwnerOf(key string) string { return n.ring.Load().Owner(key) }

// ReplicasOf reports the owner and replica members for a flight key.
func (n *Node) ReplicasOf(key string) []string {
	return n.ring.Load().Replicas(key, 1+n.cfg.Replicas)
}

// rebuildRingLocked recomputes the ring from the member set; callers
// hold n.mu (or are the constructor).
func (n *Node) rebuildRingLocked() {
	members := make([]string, 0, len(n.members))
	for m := range n.members {
		members = append(members, m)
	}
	n.ring.Store(BuildRing(members))
}

// AddMember adds url to the member set, reporting whether membership
// changed.
func (n *Node) AddMember(url string) bool {
	if url == "" {
		return false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.members[url] {
		return false
	}
	n.members[url] = true
	n.rebuildRingLocked()
	epoch := n.epoch.Add(1)
	n.journal.Record(obs.EventMembership, url, "joined epoch="+strconv.FormatInt(epoch, 10))
	return true
}

// RemoveMember removes url from the member set, reporting whether
// membership changed.
func (n *Node) RemoveMember(url string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.members[url] {
		return false
	}
	delete(n.members, url)
	n.rebuildRingLocked()
	epoch := n.epoch.Add(1)
	n.journal.Record(obs.EventMembership, url, "left epoch="+strconv.FormatInt(epoch, 10))
	return true
}

// Join announces this node to every known peer and merges the member
// sets they return, so a late joiner also learns of nodes its static
// list missed. Unreachable peers are reported joined into one error;
// the local member set already includes them, so routing proceeds.
func (n *Node) Join(ctx context.Context) error {
	var errs []error
	for _, m := range n.Members() {
		if m == n.self {
			continue
		}
		var resp struct {
			Members []string `json:"members"`
		}
		err := n.postJSON(ctx, m+"/cluster/v1/join", map[string]any{"node": n.self}, &resp)
		if err != nil {
			errs = append(errs, fmt.Errorf("join %s: %w", m, err))
			continue
		}
		for _, peer := range resp.Members {
			n.AddMember(peer)
		}
	}
	return errors.Join(errs...)
}

// Leave hands this node's ring slots off: it removes itself from its
// own ring first — so any request still reaching it routes to the new
// owner instead of computing here — then announces the departure to
// every remaining member. Call it BEFORE service.Server.BeginDrain; the
// window between the two is the drain handoff, and both sides of it
// produce byte-identical responses.
func (n *Node) Leave(ctx context.Context) error {
	peers := n.Members()
	n.RemoveMember(n.self)
	var errs []error
	for _, m := range peers {
		if m == n.self {
			continue
		}
		if err := n.postJSON(ctx, m+"/cluster/v1/leave", map[string]any{"node": n.self}, nil); err != nil {
			errs = append(errs, fmt.Errorf("leave %s: %w", m, err))
		}
	}
	return errors.Join(errs...)
}

// owner is the one trust rule, shared by ServeHeld and Route: it
// reports key's owner on the current ring and whether this node must
// compute key itself. An owner never serves peer bytes; it computes, and
// its compute replaces any it holds. An empty ring owns nothing, so a
// node that has left a fleet of one computes too.
func (n *Node) owner(key string) (owner string, computes bool) {
	owner = n.ring.Load().Owner(key)
	return owner, owner == "" || owner == n.self
}

// ServeHeld implements service.ClusterRouter: the service's fast path
// may answer key from held peer bytes unless this node owns it, and each
// such answer is a replica hit. A body is a pure function of its key, so
// bytes held for it — pushed by the owner or kept from an earlier
// forward — never go stale, whatever the ring did since.
func (n *Node) ServeHeld(key string) bool {
	if _, computes := n.owner(key); computes {
		return false
	}
	n.counts[cReplicaHits].Add(1)
	return true
}

// Route implements service.ClusterRouter: serve spec from the cluster
// when another member owns its key — held peer bytes first (a traced
// request skips the fast path that serves them otherwise), then a
// forward to the owner, whose answer this node keeps. ok=false sends
// the caller to local compute, which is always byte-equivalent (the
// determinism contract).
func (n *Node) Route(ctx context.Context, spec service.ComputeSpec) (service.RoutedResult, bool) {
	owner, computes := n.owner(spec.Key)
	if computes {
		return service.RoutedResult{}, false
	}
	if body, ok := n.local.RespCache().GetKey(spec.Key); ok {
		n.counts[cReplicaHits].Add(1)
		trace.ScopeFrom(ctx).Instant("respcache.replica_hit", "cluster")
		return service.RoutedResult{Status: http.StatusOK, Body: body,
			Decision: service.DecisionReplicaHit}, true
	}
	if spec.Hops+1 >= service.MaxHops {
		// A forwarded request for a key we don't own: the sender's ring
		// disagrees with ours (a membership change in flight). Computing
		// locally is byte-identical and cannot loop.
		n.counts[cHopCapLocal].Add(1)
		return service.RoutedResult{Decision: service.DecisionHopCappedLocal}, false
	}
	if n.peerUnreachable(owner) {
		// The prober already knows the owner is down: go straight to the
		// byte-identical local compute instead of paying a dial timeout
		// to learn it again.
		n.counts[cForwardsSkipped].Add(1)
		trace.ScopeFrom(ctx).Instant("forward.skip_unhealthy", "cluster")
		return service.RoutedResult{}, false
	}
	n.counts[cForwardsOut].Add(1)
	res, err := n.forward(ctx, owner, spec)
	if err != nil {
		// Owner unreachable, draining, or shedding load: compute locally.
		// Capacity degrades to this node's own admission control, and the
		// bytes stay identical.
		n.counts[cForwardFallback].Add(1)
		return service.RoutedResult{}, false
	}
	n.counts[cForwardServed].Add(1)
	n.local.RespCache().PutReplica(spec.Key, res.Body)
	return res, true
}

// forward replays spec on the owner, hop count incremented and request
// ID attached. Any non-200 answer, or one longer than maxPeerBody, is an
// error: the caller falls back to local compute. When the routing
// context carries a trace scope, the owner is asked to trace its hop too
// (X-Ipcd-Trace) and the spans it returns are merged into this request's
// recording as the owner's own process lane, re-based to the moment the
// forward left this node.
func (n *Node) forward(ctx context.Context, owner string, spec service.ComputeSpec) (service.RoutedResult, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		owner+"/v1/"+spec.Route, bytes.NewReader(spec.Body))
	if err != nil {
		return service.RoutedResult{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(service.HopsHeader, strconv.Itoa(spec.Hops+1))
	if spec.RequestID != "" {
		req.Header.Set(service.RequestIDHeader, spec.RequestID)
	}
	sc := trace.ScopeFrom(ctx)
	var sentAt int64
	if sc != nil {
		req.Header.Set(service.TraceHeader, "1")
		sentAt = sc.Recorder().Since()
	}
	sp := sc.Begin("peer.rtt", "cluster")
	resp, err := n.cfg.Client.Do(req)
	if err != nil {
		sp.End()
		return service.RoutedResult{}, err
	}
	defer resp.Body.Close()
	body, err := readPeerBody(resp.Body)
	sp.End()
	if err != nil {
		return service.RoutedResult{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return service.RoutedResult{}, fmt.Errorf("owner %s answered %d", owner, resp.StatusCode)
	}
	if sc != nil {
		if data := resp.Header.Get(service.TraceSpansHeader); data != "" {
			node := resp.Header.Get(service.TraceNodeHeader)
			if node == "" {
				node = owner
			}
			// Best-effort: a malformed header loses the owner's lane,
			// never the response.
			_ = sc.Recorder().MergeRemote(node, []byte(data), sentAt)
		}
	}
	return service.RoutedResult{Status: http.StatusOK, Body: body,
		Decision: service.DecisionForwarded}, nil
}

// Offer implements service.ClusterRouter: push a locally computed 200
// to the key's replica members, asynchronously and best-effort — a
// lost replica costs a future forward, never correctness.
func (n *Node) Offer(spec service.ComputeSpec, body []byte) {
	if n.cfg.Replicas <= 0 {
		return
	}
	for _, m := range n.ring.Load().Replicas(spec.Key, 1+n.cfg.Replicas) {
		if m == n.self {
			continue
		}
		go n.pushReplica(m, spec.Key, body, spec.RequestID)
	}
}

func (n *Node) pushReplica(member, key string, body []byte, reqID string) {
	ctx, cancel := context.WithTimeout(context.Background(), controlTimeout)
	defer cancel()
	// The originating request's ID rides the push, so a replica's access
	// log names the request that seeded its cache entry.
	err := n.postJSON(ctx, member+"/cluster/v1/replicate",
		map[string]any{"key": key, "body": string(body)}, nil,
		service.RequestIDHeader, reqID)
	if err != nil {
		n.counts[cReplicaPushErrors].Add(1)
		return
	}
	n.counts[cReplicaPushes].Add(1)
}

// postJSON issues one control-plane POST with a deterministic JSON body
// and optionally decodes a JSON response into out. hdrs are extra
// header key/value pairs; empty values are skipped.
func (n *Node) postJSON(ctx context.Context, url string, body map[string]any, out any, hdrs ...string) error {
	raw, err := n.call(ctx, http.MethodPost, url, service.MarshalDeterministic(body), hdrs...)
	if err != nil || out == nil {
		return err
	}
	// Lenient on responses: peers may grow fields this version does not
	// know; strictness is for requests we serve, not answers we read.
	return json.Unmarshal(raw, out)
}

// call issues one control-plane request (a JSON body when body is
// non-nil) and returns the answer's body. Any status but 200 is an
// error.
func (n *Node) call(ctx context.Context, method, url string, body []byte, hdrs ...string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, controlTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for i := 0; i+1 < len(hdrs); i += 2 {
		if hdrs[i+1] != "" {
			req.Header.Set(hdrs[i], hdrs[i+1])
		}
	}
	resp, err := n.cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := readPeerBody(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s answered %d: %s", url, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return raw, nil
}

// maxPeerBody bounds a body read from a peer: an owner's answer to a
// forward, a control-plane reply, a fan-out member's body.
const maxPeerBody = 8 << 20

// readPeerBody reads a peer's body through EOF. A body longer than
// maxPeerBody is an error, never an answer cut off at the limit.
func readPeerBody(r io.Reader) ([]byte, error) {
	body, err := io.ReadAll(io.LimitReader(r, maxPeerBody+1))
	if err == nil && len(body) > maxPeerBody {
		err = fmt.Errorf("peer body exceeds %d bytes", maxPeerBody)
	}
	return body, err
}

// FanOut implements service.ClusterRouter: path's local-scope body from
// every member in sorted order — self's is the body passed in, never a
// request to itself, so an aggregated view can neither recurse nor
// count itself — leaving out each peer that cannot be reached or
// answers non-200.
func (n *Node) FanOut(ctx context.Context, path string, self []byte) service.Fanout {
	members := n.Members()
	bodies := make(map[string][]byte, len(members))
	for _, m := range members {
		if m == n.self {
			bodies[m] = self
		} else if raw, err := n.call(ctx, http.MethodGet, m+path, nil); err == nil {
			bodies[m] = raw
		}
	}
	return service.Fanout{Self: n.self, Members: members, Bodies: bodies}
}

// The cluster counters, declared once: each row names a counter's key
// in the node's /metrics "cluster" section and its Stats field, and
// both views render from the table.
const (
	cForwardsOut       = iota // forwards attempted
	cForwardServed            // forwards answered 200 by the owner
	cForwardFallback          // forwards that fell back to local compute
	cForwardsSkipped          // forwards skipped: owner known unreachable
	cReplicaHits              // requests served from held peer bytes
	cReplicaStores            // replica pushes stored for an owner
	cReplicaPushes            // entries pushed to a replica
	cReplicaPushErrors        // pushes that failed (best-effort)
	cHopCapLocal              // unowned keys computed locally: hop budget spent
)

var counters = [...]struct {
	key   string
	field func(*Stats) *int64
}{
	cForwardsOut:       {"forwards_out", func(st *Stats) *int64 { return &st.ForwardsOut }},
	cForwardServed:     {"forward_served", func(st *Stats) *int64 { return &st.ForwardServed }},
	cForwardFallback:   {"forward_fallback", func(st *Stats) *int64 { return &st.ForwardFallback }},
	cForwardsSkipped:   {"forward_skipped_unhealthy", func(st *Stats) *int64 { return &st.ForwardsSkipped }},
	cReplicaHits:       {"replica_hits", func(st *Stats) *int64 { return &st.ReplicaHits }},
	cReplicaStores:     {"replica_stores", func(st *Stats) *int64 { return &st.ReplicaStores }},
	cReplicaPushes:     {"replica_pushes", func(st *Stats) *int64 { return &st.ReplicaPushes }},
	cReplicaPushErrors: {"replica_push_errors", func(st *Stats) *int64 { return &st.ReplicaPushErrors }},
	cHopCapLocal:       {"hop_cap_local", func(st *Stats) *int64 { return &st.HopCapLocal }},
}

// Stats is a snapshot of the node's cluster counters.
type Stats struct {
	ForwardsOut       int64
	ForwardServed     int64
	ForwardFallback   int64
	ForwardsSkipped   int64
	ReplicaHits       int64
	ReplicaStores     int64
	ReplicaPushes     int64
	ReplicaPushErrors int64
	HopCapLocal       int64
}

// Stats reports the current counter values.
func (n *Node) Stats() Stats {
	var st Stats
	for i := range counters {
		*counters[i].field(&st) = n.counts[i].Load()
	}
	return st
}

// MetricsSnapshot implements service.ClusterRouter: the node's cluster
// counters as a deterministically encodable tree, merged into the
// node's own GET /metrics body under "cluster".
func (n *Node) MetricsSnapshot() map[string]any {
	m := map[string]any{
		"self":    n.self,
		"members": n.Members(),
		"epoch":   n.Epoch(),
	}
	for i := range counters {
		m[counters[i].key] = n.counts[i].Load()
	}
	return m
}
