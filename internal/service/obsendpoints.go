package service

import (
	"net/http"
	"time"

	"repro/internal/obs"
)

// The observability GET routes. Each is one row of obsRoutes: its path,
// its route name, the list its ?scope=cluster view merges, and its
// local renderer. Every row is drain-exempt, draws request IDs from the
// observability sequence, and is never traced or kept in the request
// ring; ?scope=cluster fans the path out through the cluster tier and
// merges the members' local bodies (see fanout.go).

// obsRoute is one observability GET endpoint.
type obsRoute struct {
	path string
	name string
	// listKey names the timestamped list a cluster view merges on
	// (unix_ms, node, seq); empty for /metrics, whose cluster view is the
	// nodes-and-totals merge.
	listKey string
	local   func(*Server) []byte // this node's own body
}

var obsRoutes = [...]obsRoute{
	{"/metrics", "metrics", "", (*Server).MetricsJSON},
	{"/metrics/history", "history", "points", (*Server).historyJSON},
	{"/debug/requests", "requests", "requests", (*Server).requestsJSON},
	{"/debug/health", "health", "peers", (*Server).healthJSON},
	{"/debug/events", "events", "events", (*Server).eventsJSON},
}

// serveObs answers one observability route: the local body, or with
// ?scope=cluster the merged view of every member. /metrics additionally
// serves the Prometheus exposition under ?format=prometheus.
func (s *Server) serveObs(o obsRoute) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		switch {
		case o.path == "/metrics" && q.Get("format") == "prometheus":
			s.serveExposition(w, r)
		case q.Get("scope") == "cluster" && s.cfg.Cluster != nil:
			f := s.cfg.Cluster.FanOut(r.Context(), o.path, o.local(s))
			if o.listKey == "" {
				writeDet(w, http.StatusOK, nil, mergeMetrics(f, s.cfg.Cluster.Epoch()))
			} else {
				writeDet(w, http.StatusOK, nil, mergeTimelines(f, o.listKey))
			}
		default:
			writeDet(w, http.StatusOK, nil, o.local(s))
		}
	}
}

// healthJSON renders this node's own /debug/health body: its view of
// its peers' health. Single-node operation has no peers; the body still
// carries an empty list so pollers need not care about the deployment
// shape. Each peer entry carries unix_ms (its last state transition) so
// the cluster merge orders entries like every other timeline.
func (s *Server) healthJSON() []byte {
	peers := make([]any, 0)
	var epoch int64
	if s.cfg.Cluster != nil {
		epoch = s.cfg.Cluster.Epoch()
		for _, p := range s.cfg.Cluster.HealthSnapshot() {
			peers = append(peers, p)
		}
	}
	return marshalDet(map[string]any{
		"node":  s.cfg.NodeName,
		"epoch": epoch,
		"peers": peers,
	})
}

// eventsJSON renders this node's own /debug/events body: the
// structured event journal, oldest first.
func (s *Server) eventsJSON() []byte {
	evs := s.cfg.Journal.Events()
	list := make([]any, 0, len(evs))
	for _, ev := range evs {
		list = append(list, map[string]any{
			"unix_ms": ev.UnixMS,
			"seq":     ev.Seq,
			"type":    ev.Type,
			"subject": ev.Subject,
			"detail":  ev.Detail,
		})
	}
	return marshalDet(map[string]any{
		"node":     s.cfg.NodeName,
		"capacity": int64(s.cfg.Journal.Capacity()),
		"events":   list,
	})
}

// sloJSON renders the SLO tracker's state for the /metrics body: every
// objective's rolling windows with their burn rates. Objectives appear
// in name order (the tracker's own order); an SLO-disabled server
// reports an empty list.
func (s *Server) sloJSON() map[string]any {
	objs := make([]any, 0)
	for _, o := range s.slo.Snapshot() {
		wins := make([]any, 0, len(o.Windows))
		for _, w := range o.Windows {
			wins = append(wins, map[string]any{
				"window":     w.Window,
				"seconds":    int64(w.Seconds),
				"good":       w.Good,
				"total":      w.Total,
				"burn_milli": w.BurnMilli,
				"breached":   w.Breached,
			})
		}
		objs = append(objs, map[string]any{
			"name":       o.Name,
			"route":      o.Route,
			"target_ppm": o.TargetPPM,
			"latency_us": o.LatencyUS,
			"windows":    wins,
		})
	}
	return map[string]any{"objectives": objs}
}

// TickSLO closes the current SLO sample and rolls the windows forward.
// ipcd drives it once per second; tests call it with fixed times.
func (s *Server) TickSLO(t time.Time) { s.slo.Tick(t.UnixMilli()) }

// SLOSnapshot exposes the tracker's state — the Prometheus exposition
// and tests read it.
func (s *Server) SLOSnapshot() []obs.ObjectiveSnapshot { return s.slo.Snapshot() }

// shedEpisodeGapMS separates load-shedding episodes in the journal: a
// burst of 429s is one operational event, so a new shed record is only
// minted when this long has passed since the previous one.
const shedEpisodeGapMS = 5000

// recordShed journals the start of a load-shedding episode. Runs only
// on the 429 path, so the fast path never pays for it.
func (s *Server) recordShed(route string, nowMS int64) {
	if s.cfg.Journal == nil {
		return
	}
	last := s.lastShedMS.Load()
	if nowMS-last < shedEpisodeGapMS {
		return
	}
	if s.lastShedMS.CompareAndSwap(last, nowMS) {
		s.cfg.Journal.Record(obs.EventShed, route, "load shed: admission queue full")
	}
}
