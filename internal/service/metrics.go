package service

import (
	"strings"
	"sync"
	"time"

	"repro/internal/gtpn"
)

// The counter table: every scalar family the daemon reports is declared
// once, as one row, in exposition order. Each view derives what it
// needs from the row — the /metrics JSON section and key, the
// Prometheus family name and type, the /metrics/history sample, and
// the cluster view's totals — so a new metric is one row, not one edit
// per view. The labelled families (per-route requests, SLO windows,
// latency histograms) keep their own renderers.

// familyFlags say where a family appears beyond /metrics and the
// exposition, which carry every row.
type familyFlags uint8

const (
	gauge   familyFlags = 1 << iota // a level, not a monotonic count
	sampled                         // sampled into /metrics/history
	summed                          // summed into the cluster view's totals
)

// family is one scalar metric family.
type family struct {
	section string // /metrics JSON section
	key     string // key within the section
	flags   familyFlags
	// historyKey names the family in /metrics/history when it differs
	// from key.
	historyKey string
	// value reads the family from its owner's stats; nil for the
	// serving counters kept in metrics.c.
	value func(*sources) int64
}

// sources are the stats of the families ipcd does not count itself.
type sources struct {
	queueDepth int64
	rc         RespCacheStats
	cs         gtpn.CacheStats
	es         gtpn.EngineStats
}

// Row indexes of the serving families; metrics.c counts them directly.
const (
	fRequestsTotal = iota
	fInFlight
	fQueueDepth
	fCoalesced
	fClusterServed
	fLeaders
	fRejectedBusy
	fRejectedDraining
	fRejectedHops
	fErrors
)

var families = [...]family{
	fRequestsTotal:    {section: "serving", key: "requests_total", flags: sampled | summed},
	fInFlight:         {section: "serving", key: "in_flight", flags: gauge | sampled | summed},
	fQueueDepth:       {section: "serving", key: "queue_depth", flags: gauge | sampled, value: func(s *sources) int64 { return s.queueDepth }},
	fCoalesced:        {section: "serving", key: "coalesced", flags: sampled | summed},
	fClusterServed:    {section: "serving", key: "cluster_served", flags: sampled | summed},
	fLeaders:          {section: "serving", key: "leaders", flags: sampled | summed},
	fRejectedBusy:     {section: "serving", key: "rejected_busy", flags: sampled | summed},
	fRejectedDraining: {section: "serving", key: "rejected_draining", flags: sampled | summed},
	fRejectedHops:     {section: "serving", key: "rejected_hops", flags: summed},
	fErrors:           {section: "serving", key: "errors", flags: sampled | summed},
	{section: "resp_cache", key: "hits", flags: summed, value: func(s *sources) int64 { return s.rc.Hits }},
	{section: "resp_cache", key: "misses", flags: summed, value: func(s *sources) int64 { return s.rc.Misses }},
	{section: "resp_cache", key: "evictions", value: func(s *sources) int64 { return s.rc.Evictions }},
	{section: "resp_cache", key: "stores", value: func(s *sources) int64 { return s.rc.Stores }},
	{section: "resp_cache", key: "entries", flags: gauge, value: func(s *sources) int64 { return s.rc.Entries }},
	{section: "resp_cache", key: "bytes", flags: gauge, value: func(s *sources) int64 { return s.rc.Bytes }},
	{section: "gtpn_cache", key: "hits", flags: sampled | summed, historyKey: "cache_hits", value: func(s *sources) int64 { return int64(s.cs.Hits) }},
	{section: "gtpn_cache", key: "misses", flags: sampled | summed, historyKey: "cache_misses", value: func(s *sources) int64 { return int64(s.cs.Misses) }},
	{section: "gtpn_cache", key: "bypassed", value: func(s *sources) int64 { return int64(s.cs.Bypassed) }},
	{section: "gtpn_cache", key: "entries", flags: gauge, value: func(s *sources) int64 { return int64(s.cs.Entries) }},
	{section: "gtpn_engine", key: "graphs_built", value: func(s *sources) int64 { return int64(s.es.GraphsBuilt) }},
	{section: "gtpn_engine", key: "states_explored", value: func(s *sources) int64 { return int64(s.es.StatesExplored) }},
	{section: "gtpn_engine", key: "edges_built", value: func(s *sources) int64 { return int64(s.es.EdgesBuilt) }},
	{section: "gtpn_engine", key: "parallel_class_solves", value: func(s *sources) int64 { return int64(s.es.ParallelClassSolves) }},
	{section: "gtpn_engine", key: "graphs_reused", value: func(s *sources) int64 { return int64(s.es.GraphsReused) }},
	{section: "gtpn_engine", key: "warm_starts", value: func(s *sources) int64 { return int64(s.es.WarmStarts) }},
	{section: "gtpn_engine", key: "stationary_sweeps", value: func(s *sources) int64 { return int64(s.es.StationarySweeps) }},
}

// values holds one reading of every family, indexed like families.
type values [len(families)]int64

// promName is the family's Prometheus name: ipcd_, the section (none
// for serving), the key, and _total on a counter that lacks it.
func (f *family) promName() string {
	name := "ipcd_" + f.key
	if f.section != "serving" {
		name = "ipcd_" + f.section + "_" + f.key
	}
	if f.flags&gauge == 0 && !strings.HasSuffix(name, "_total") {
		name += "_total"
	}
	return name
}

// totalName is the family's key in the cluster view's totals.
func (f *family) totalName() string {
	if f.section == "serving" {
		return f.key
	}
	return f.section + "_" + f.key
}

// metrics is the daemon's own counter set. Everything is guarded by one
// mutex — the counters are touched a handful of times per request, far
// off the solve path.
type metrics struct {
	mu      sync.Mutex
	c       values                // the serving counters, at their family rows
	byRoute map[string]int64      // accepted requests per route
	latency map[string]*Histogram // per-route request latency
}

func newMetrics() *metrics {
	return &metrics{
		byRoute: map[string]int64{},
		latency: map[string]*Histogram{},
	}
}

func (m *metrics) requestStart(route string) {
	m.mu.Lock()
	m.c[fRequestsTotal]++
	m.byRoute[route]++
	m.c[fInFlight]++
	m.mu.Unlock()
}

func (m *metrics) requestEnd(route string, d time.Duration, status int, id RequestID) {
	m.mu.Lock()
	m.c[fInFlight]--
	h := m.latency[route]
	if h == nil {
		h = NewHistogram().withExemplars()
		m.latency[route] = h
	}
	h.ObserveID(float64(d.Microseconds()), id)
	switch {
	case status == 429:
		m.c[fRejectedBusy]++
	case status >= 400:
		m.c[fErrors]++
	}
	m.mu.Unlock()
}

// inc bumps one serving counter.
func (m *metrics) inc(row int) {
	m.mu.Lock()
	m.c[row]++
	m.mu.Unlock()
}

// reading is one coherent copy of everything the metrics views render.
type reading struct {
	v       values
	byRoute map[string]int64
	latency map[string]*Histogram
}

// readMetrics copies the serving state under the mutex — so a slow
// reader never stalls the request path's counter updates — then fills
// the other families from their owners.
func (s *Server) readMetrics() reading {
	m := s.metrics
	m.mu.Lock()
	rd := reading{
		v:       m.c,
		byRoute: make(map[string]int64, len(m.byRoute)),
		latency: make(map[string]*Histogram, len(m.latency)),
	}
	for r, n := range m.byRoute {
		rd.byRoute[r] = n
	}
	for r, h := range m.latency {
		rd.latency[r] = h.clone()
	}
	m.mu.Unlock()
	src := sources{
		queueDepth: s.queueDepth(),
		rc:         s.respCache.Stats(),
		cs:         gtpn.SolveCacheStats(),
		es:         gtpn.SolverEngineStats(),
	}
	for i := range families {
		if value := families[i].value; value != nil {
			rd.v[i] = value(&src)
		}
	}
	return rd
}

// MetricsJSON renders this node's own /metrics body — the local scope:
// one section per family table section, plus the per-route requests
// and latency histograms, the SLO windows, and the cluster counters.
func (s *Server) MetricsJSON() []byte {
	rd := s.readMetrics()
	body := map[string]any{"slo": s.sloJSON()}
	for i := range families {
		f := &families[i]
		sec, _ := body[f.section].(map[string]any)
		if sec == nil {
			sec = map[string]any{}
			body[f.section] = sec
		}
		sec[f.key] = rd.v[i]
	}
	byRoute := make(map[string]any, len(rd.byRoute))
	for r, n := range rd.byRoute {
		byRoute[r] = n
	}
	latency := make(map[string]any, len(rd.latency))
	for r, h := range rd.latency {
		latency[r] = h.Snapshot()
	}
	serving := body["serving"].(map[string]any)
	serving["by_route"] = byRoute
	serving["latency_us"] = latency
	if s.cfg.Cluster != nil {
		body["cluster"] = s.cfg.Cluster.MetricsSnapshot()
	}
	return marshalDet(body)
}
