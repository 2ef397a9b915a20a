package des

import "repro/internal/counters"

// Resource is a single server with a non-preemptive priority queue,
// modeling a processor (host or message coprocessor) executing one
// kernel activity at a time. Higher priority values are served first;
// ties are FCFS, matching the scheduling policy of the thesis
// experiments (§4.8). Network-interrupt service is modeled by granting
// it a higher priority than task-level work, the machine-level analogue
// of the "(NetIntr = 0)" frequency gates in the chapter 6 nets.
type Resource struct {
	eng  *Engine
	name string
	busy bool
	q    []grant

	// BusyTicks accumulates total occupied time for utilization reports.
	BusyTicks int64
	lastStart int64
	// Served counts completed holds.
	Served int64

	// track is this resource's timeline track on the engine's tracer,
	// registered lazily at first emission (0 = not yet registered).
	track int32

	// Performance-counter handles, registered at construction when the
	// engine carries a registry; nil handles make every update a no-op.
	cBusy   *counters.TimeAvg // 0/1 occupancy level; mean = utilization
	cQueue  *counters.TimeAvg // waiting requests; mean = time-avg queue length
	cServed *counters.Counter // completed holds
}

type grant struct {
	pri int
	seq uint64
	fn  func()
}

// NewResource returns an idle single-server resource.
func NewResource(eng *Engine, name string) *Resource {
	r := &Resource{eng: eng, name: name}
	if reg := eng.ctrs; reg != nil {
		r.cBusy = reg.TimeAvg("res." + name + ".busy")
		r.cQueue = reg.TimeAvg("res." + name + ".queue")
		r.cServed = reg.Counter("res." + name + ".served")
	}
	return r
}

// Name reports the resource's name.
func (r *Resource) Name() string { return r.name }

// Busy reports whether the server is occupied.
func (r *Resource) Busy() bool { return r.busy }

// Acquire requests the server at the given priority; fn runs when the
// server is granted. The holder must call Release when done (typically
// from a scheduled completion event).
func (r *Resource) Acquire(pri int, fn func()) {
	r.eng.seq++
	g := grant{pri: pri, seq: r.eng.seq, fn: fn}
	if !r.busy {
		r.busy = true
		r.lastStart = r.eng.Now()
		r.cBusy.Set(r.eng.Now(), 1)
		fn()
		return
	}
	r.cQueue.Add(r.eng.Now(), 1)
	// Insert by priority (desc), FCFS within a priority.
	i := len(r.q)
	for i > 0 && r.q[i-1].pri < pri {
		i--
	}
	r.q = append(r.q, grant{})
	copy(r.q[i+1:], r.q[i:])
	r.q[i] = g
}

// Use is the common acquire-hold-release pattern: take the server at
// pri, hold it for d ticks, then run fn (after releasing).
func (r *Resource) Use(pri int, d int64, fn func()) {
	r.Acquire(pri, func() {
		r.eng.After(d, func() {
			r.Release()
			if fn != nil {
				fn()
			}
		})
	})
}

// UseSpan is Use plus a lifecycle span: the hold appears on this
// resource's timeline track as a complete span named for the activity.
// With no tracer attached it is exactly Use. Span names must be static
// strings (the recorder stores them without copying).
func (r *Resource) UseSpan(pri int, d int64, name, cat string, fn func()) {
	if r.eng.tracer == nil {
		r.Use(pri, d, fn)
		return
	}
	r.Acquire(pri, func() {
		start := r.eng.Now()
		r.eng.After(d, func() {
			r.EmitSpan(name, cat, start, d)
			r.Release()
			if fn != nil {
				fn()
			}
		})
	})
}

// EmitSpan records a completed interval on this resource's track; a
// no-op without a tracer.
func (r *Resource) EmitSpan(name, cat string, start, dur int64) {
	tr := r.eng.tracer
	if tr == nil {
		return
	}
	if r.track == 0 {
		r.track = tr.Track(0, r.name)
	}
	tr.Emit(0, r.track, name, cat, start, dur)
}

// Release frees the server and grants it to the highest-priority waiter.
func (r *Resource) Release() {
	if !r.busy {
		panic("des: Release of idle resource " + r.name)
	}
	r.BusyTicks += r.eng.Now() - r.lastStart
	r.Served++
	r.cServed.Inc()
	if len(r.q) == 0 {
		r.busy = false
		r.cBusy.Set(r.eng.Now(), 0)
		return
	}
	g := r.q[0]
	copy(r.q, r.q[1:])
	r.q = r.q[:len(r.q)-1]
	r.lastStart = r.eng.Now()
	r.cQueue.Add(r.eng.Now(), -1)
	g.fn()
}

// Utilization reports the fraction of time the server has been busy up
// to now (including an in-progress hold).
func (r *Resource) Utilization() float64 {
	if r.eng.Now() == 0 {
		return 0
	}
	busy := r.BusyTicks
	if r.busy {
		busy += r.eng.Now() - r.lastStart
	}
	return float64(busy) / float64(r.eng.Now())
}
