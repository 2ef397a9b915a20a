package service

import "time"

// historyPoint is one timestamped reading of the counter table; the
// families flagged sampled are what /metrics/history reports.
type historyPoint struct {
	unixMS int64
	v      values
}

// SampleMetrics appends one observation of the current counters to the
// in-process history ring — the last historySize samples, oldest
// evicted first — timestamped at t. ipcd calls this on a ticker; tests
// call it with fixed times for determinism.
func (s *Server) SampleMetrics(t time.Time) {
	p := historyPoint{unixMS: t.UnixMilli(), v: s.readMetrics().v}
	s.historyMu.Lock()
	s.history.Push(p)
	s.historyMu.Unlock()
}

// historyJSON renders this node's own /metrics/history body — the
// local scope — oldest sample first.
func (s *Server) historyJSON() []byte {
	s.historyMu.Lock()
	pts, capacity := s.history.Slice(), s.history.Cap()
	s.historyMu.Unlock()
	list := make([]any, 0, len(pts))
	for _, p := range pts {
		point := map[string]any{"unix_ms": p.unixMS}
		for i := range families {
			if f := &families[i]; f.flags&sampled != 0 {
				key := f.key
				if f.historyKey != "" {
					key = f.historyKey
				}
				point[key] = p.v[i]
			}
		}
		list = append(list, point)
	}
	return marshalDet(map[string]any{
		"capacity": int64(capacity),
		"points":   list,
	})
}
