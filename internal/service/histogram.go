package service

// Histogram is a fixed-bucket latency histogram in microseconds. The
// bounds cover sub-millisecond cache hits through multi-minute full
// experiment regenerations. Quantiles are derived deterministically
// from the bucket counts (the estimate is the upper bound of the bucket
// holding the ranked observation), so two histograms with the same
// counts always report the same quantiles — which is what lets a load
// generator's client-side histogram be cross-checked against the
// daemon's /metrics.
//
// Histogram is not internally synchronized; the metrics set guards its
// histograms with its own mutex, and offline consumers (ipcload)
// populate one from a single goroutine.
type Histogram struct {
	counts []int64 // len(histBounds)+1: one per bound plus the overflow bucket
	count  int64
	sum    float64
	max    float64
	// exemplars, when non-nil (withExemplars), retains per bucket the
	// last observation that landed there together with its request ID —
	// the OpenMetrics exemplar notion, linking a slow bucket directly to
	// a trace file or access-log line. The server's metrics histograms
	// enable it; client-side histograms (ipcload) do not.
	exemplars []exemplar
}

// exemplar pins the last request that landed in a bucket.
type exemplar struct {
	id RequestID
	us float64
}

// histBounds are the bucket upper bounds, in microseconds. An
// observation lands in the first bucket whose bound it does not exceed;
// anything beyond the last bound lands in the overflow bucket.
var histBounds = []float64{
	100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000,
	100_000, 250_000, 500_000, 1_000_000, 2_500_000, 5_000_000,
	10_000_000, 60_000_000,
}

// NewHistogram returns an empty histogram over the standard bounds.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]int64, len(histBounds)+1)}
}

// withExemplars enables per-bucket exemplar retention and returns h.
func (h *Histogram) withExemplars() *Histogram {
	h.exemplars = make([]exemplar, len(histBounds)+1)
	return h
}

// Observe records one latency observation in microseconds.
func (h *Histogram) Observe(us float64) { h.ObserveID(us, RequestID{}) }

// ObserveID records one observation tagged with the request that
// produced it; the bucket it lands in retains the ID as its exemplar
// (when exemplar retention is enabled and the ID is non-zero).
func (h *Histogram) ObserveID(us float64, id RequestID) {
	i := 0
	for i < len(histBounds) && us > histBounds[i] {
		i++
	}
	h.counts[i]++
	h.count++
	h.sum += us
	if us > h.max {
		h.max = us
	}
	if h.exemplars != nil && !id.IsZero() {
		h.exemplars[i] = exemplar{id: id, us: us}
	}
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Sum reports the sum of all observations in microseconds.
func (h *Histogram) Sum() float64 { return h.sum }

// Counts returns a copy of the per-bucket counts; the last entry is the
// overflow bucket.
func (h *Histogram) Counts() []int64 {
	return append([]int64(nil), h.counts...)
}

// Quantile reports the upper bound of the bucket holding the q-quantile
// observation (the conventional histogram estimate); observations in
// the overflow bucket report the maximum seen.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := int64(q * float64(h.count))
	if rank >= h.count {
		rank = h.count - 1
	}
	var seen int64
	for i, c := range h.counts {
		seen += c
		if seen > rank {
			if i < len(histBounds) {
				return histBounds[i]
			}
			return h.max
		}
	}
	return h.max
}

// clone copies the histogram so a snapshot can be rendered without
// holding the lock that guards the original.
func (h *Histogram) clone() *Histogram {
	c := *h
	c.counts = append([]int64(nil), h.counts...)
	if h.exemplars != nil {
		c.exemplars = append([]exemplar(nil), h.exemplars...)
	}
	return &c
}

// Snapshot renders the histogram as a deterministic JSON tree: count,
// mean, max, the derived p50/p90/p99, and the raw bucket counts (so the
// quantiles can be re-derived and the bucket total reconciled against
// request counters).
func (h *Histogram) Snapshot() map[string]any {
	mean := 0.0
	if h.count > 0 {
		mean = h.sum / float64(h.count)
	}
	snap := map[string]any{
		"count":   h.count,
		"mean_us": mean,
		"max_us":  h.max,
		"p50_us":  h.Quantile(0.50),
		"p90_us":  h.Quantile(0.90),
		"p99_us":  h.Quantile(0.99),
		"buckets": h.Counts(),
	}
	if h.exemplars != nil {
		// One entry per bucket, aligned with "buckets": the last request
		// ID that landed there ("" while the bucket has none).
		ids := make([]string, len(h.exemplars))
		for i, ex := range h.exemplars {
			ids[i] = ex.id.String()
		}
		snap["exemplars"] = ids
	}
	return snap
}
