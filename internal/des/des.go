// Package des is a small discrete-event simulation engine used by the
// machine-level simulators in this repository (the smart bus, the smart
// shared memory, the token-ring network, and the four node architectures
// of chapter 6). Time is an int64 tick counter; the machine simulators
// use 1 tick = 1 nanosecond so that both instruction times (microseconds)
// and bus clock edges (quarter microseconds) are exact integers.
package des

import (
	"container/heap"
	"fmt"

	"repro/internal/counters"
	"repro/internal/rng"
	"repro/internal/trace"
)

// Ticks per common time units at the 1 ns resolution the machine
// simulators use.
const (
	Nanosecond  int64 = 1
	Microsecond int64 = 1000
	Millisecond int64 = 1000 * 1000
	Second      int64 = 1000 * 1000 * 1000
)

type event struct {
	at  int64
	seq uint64
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h eventHeap) Peek() (int64, bool) { // next event time
	if len(h) == 0 {
		return 0, false
	}
	return h[0].at, true
}

// Engine is a sequential discrete-event scheduler. Events at equal times
// run in scheduling order (FIFO tie-break), which keeps runs
// deterministic.
type Engine struct {
	now    int64
	seq    uint64
	events eventHeap
	rng    *rng.Source
	tracer *trace.Recorder
	ctrs   *counters.Registry
}

// New returns an engine at time zero with a seeded random source.
func New(seed uint64) *Engine {
	return &Engine{rng: rng.New(seed)}
}

// Now reports the current simulation time in ticks.
func (e *Engine) Now() int64 { return e.now }

// Rand exposes the engine's deterministic random source.
func (e *Engine) Rand() *rng.Source { return e.rng }

// SetTracer attaches a span recorder: the engine's observability hook.
// Resources (and the simulators built on them) emit spans on it in
// virtual time. Attach the tracer before building the simulated machine
// so tracks register in construction order; a nil tracer (the default)
// keeps every emission a nil-check no-op.
func (e *Engine) SetTracer(r *trace.Recorder) { e.tracer = r }

// Tracer reports the attached recorder (nil when tracing is off).
func (e *Engine) Tracer() *trace.Recorder { return e.tracer }

// SetCounters attaches a performance-counter registry: the engine's
// second observability hook, for aggregate levels rather than spans.
// Resources and the simulators built on them publish into it in virtual
// time. Attach before building the simulated machine so resources can
// register their metrics at construction; a nil registry (the default)
// keeps every update a nil-check no-op.
func (e *Engine) SetCounters(r *counters.Registry) { e.ctrs = r }

// Counters reports the attached registry (nil when counting is off).
func (e *Engine) Counters() *counters.Registry { return e.ctrs }

// At schedules fn at absolute time t. Scheduling in the past panics: it
// would silently reorder causality.
func (e *Engine) At(t int64, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("des: scheduling at %d before now %d", t, e.now))
	}
	e.seq++
	heap.Push(&e.events, event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn d ticks from now.
func (e *Engine) After(d int64, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("des: negative delay %d", d))
	}
	e.At(e.now+d, fn)
}

// Run executes events until the calendar empties or the clock passes
// until (exclusive upper bound; pass a horizon). It reports the number of
// events executed.
func (e *Engine) Run(until int64) int {
	n := 0
	for len(e.events) > 0 {
		if at, _ := e.events.Peek(); at > until {
			break
		}
		ev := heap.Pop(&e.events).(event)
		e.now = ev.at
		ev.fn()
		n++
	}
	if e.now < until && len(e.events) == 0 {
		// Nothing left to do; advance to the horizon so measured
		// intervals are well defined.
		e.now = until
	}
	return n
}
