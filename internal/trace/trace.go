// Package trace is the repository's low-overhead span/event recorder —
// the observability layer the chapter 3 measurement study argues for,
// applied to our own stack. It records the same decomposition instinct
// the thesis uses on real kernels (break a round trip into component
// activities, then ask where the time went) against both of this
// repository's "machines":
//
//   - the simulated machines (des/kernel/machine/bus/network), whose
//     spans are stamped in deterministic virtual time (engine ticks), so
//     a fixed-seed run produces a byte-identical trace; and
//   - the serving path (service/core/gtpn), whose spans are stamped in
//     wall time relative to a per-recorder epoch.
//
// Two backends consume a recording: WriteChrome renders the Chrome
// trace-event JSON format (loadable in Perfetto or chrome://tracing) for
// a zoomable timeline, and Breakdown aggregates per-activity totals into
// the Table-3.x row shape (profile.MeasuredRow) for a chapter-3-style
// round-trip decomposition.
//
// Overhead contract: tracing is off by default, and every recording
// method is safe — and allocation-free — on a nil *Recorder, so
// instrumented hot paths pay one nil check when tracing is disabled.
// When tracing is enabled, spans land in a fixed-capacity ring buffer
// (the oldest spans are dropped, with a counter) and per-activity totals
// are accumulated exactly across the whole run, so the breakdown is
// complete even when the timeline ring has wrapped. Span names must be
// static (or at least long-lived) strings: the recorder stores them
// without copying.
package trace

import (
	"sync"
	"time"

	"repro/internal/ringbuf"
)

// Kind distinguishes event shapes in the ring.
type Kind uint8

const (
	// KindSpan is a complete interval: Start..Start+Dur on a track.
	KindSpan Kind = iota
	// KindInstant is a point event at Start (Dur is zero).
	KindInstant
)

// Span is one recorded event. Times are in recorder ticks: engine ticks
// (nanoseconds) for virtual-clock recorders, nanoseconds since the
// recorder's epoch for wall-clock recorders.
type Span struct {
	Name  string
	Cat   string
	Proc  int32
	Track int32
	Kind  Kind
	Start int64
	Dur   int64
	Arg   int64 // optional payload (task id, message id); <0 means none
}

// total accumulates one activity's exact run-wide totals.
type total struct {
	name  string
	cat   string
	count int64
	ticks int64
}

// Total is one activity's aggregate over the whole recording (not just
// the ring window): how many spans carried the name and their summed
// duration in ticks.
type Total struct {
	Name  string
	Cat   string
	Count int64
	Ticks int64
}

// Recorder collects spans. The zero value is not usable; construct with
// New or NewWall. A nil *Recorder is a valid "tracing disabled" recorder:
// every method is a cheap no-op.
type Recorder struct {
	mu         sync.Mutex
	ticksPerUS int64
	epoch      time.Time // wall-clock recorders only
	wall       bool

	procs     []procMeta
	tracks    []trackMeta
	nextTrack int32

	ring    *ringbuf.Ring[Span]
	dropped int64

	agg      map[string]*total
	aggOrder []*total
}

type procMeta struct {
	id   int32
	name string
}

type trackMeta struct {
	proc int32
	id   int32
	name string
}

// DefaultCapacity bounds the timeline ring when callers pass 0.
const DefaultCapacity = 1 << 18

// New creates a virtual-clock recorder: span times are engine ticks at
// ticksPerUS ticks per microsecond (the des engine runs at 1000, the
// chapter 3 profiling timer at 1). capacity bounds the timeline ring;
// 0 means DefaultCapacity.
func New(capacity int, ticksPerUS int64) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if ticksPerUS <= 0 {
		ticksPerUS = 1
	}
	return &Recorder{
		ticksPerUS: ticksPerUS,
		ring:       ringbuf.New[Span](capacity),
		agg:        map[string]*total{},
	}
}

// NewWall creates a wall-clock recorder: span times are nanoseconds
// since the recorder's creation (its epoch).
func NewWall(capacity int) *Recorder {
	r := New(capacity, 1000)
	r.wall = true
	r.epoch = time.Now()
	return r
}

// Enabled reports whether the recorder records (false for nil).
func (r *Recorder) Enabled() bool { return r != nil }

// Since reports nanoseconds elapsed since a wall recorder's epoch (the
// Start value for a span beginning now). It returns 0 on a nil or
// virtual-clock recorder.
func (r *Recorder) Since() int64 {
	if r == nil || !r.wall {
		return 0
	}
	return time.Since(r.epoch).Nanoseconds()
}

// RegisterProcess names a process (Chrome pid) for the metadata header.
// Process 0 is implicit; registering it just names it.
func (r *Recorder) RegisterProcess(proc int32, name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.procs {
		if r.procs[i].id == proc {
			r.procs[i].name = name
			return
		}
	}
	r.procs = append(r.procs, procMeta{id: proc, name: name})
}

// Track registers a named track (Chrome tid) under a process and returns
// its id. Ids start at 1; 0 is never assigned, so callers can use 0 as
// "not yet registered". On a nil recorder Track returns 0.
func (r *Recorder) Track(proc int32, name string) int32 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextTrack++
	r.tracks = append(r.tracks, trackMeta{proc: proc, id: r.nextTrack, name: name})
	return r.nextTrack
}

// Emit records a complete span. Nil-safe; no-op when name is empty.
func (r *Recorder) Emit(proc, track int32, name, cat string, start, dur int64) {
	if r == nil || name == "" {
		return
	}
	r.mu.Lock()
	r.push(Span{Name: name, Cat: cat, Proc: proc, Track: track,
		Kind: KindSpan, Start: start, Dur: dur, Arg: -1})
	t := r.agg[name]
	if t == nil {
		t = &total{name: name, cat: cat}
		r.agg[name] = t
		r.aggOrder = append(r.aggOrder, t)
	}
	t.count++
	t.ticks += dur
	r.mu.Unlock()
}

// Instant records a point event with an argument (pass arg < 0 for
// none). Instants appear on the timeline but are excluded from the
// breakdown totals. Nil-safe.
func (r *Recorder) Instant(proc, track int32, name, cat string, at, arg int64) {
	if r == nil || name == "" {
		return
	}
	r.mu.Lock()
	r.push(Span{Name: name, Cat: cat, Proc: proc, Track: track,
		Kind: KindInstant, Start: at, Arg: arg})
	r.mu.Unlock()
}

// push writes into the ring, overwriting the oldest span when full.
// Caller holds r.mu.
func (r *Recorder) push(s Span) {
	if r.ring.Push(s) {
		r.dropped++
	}
}

// Len reports the number of spans currently in the timeline ring.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Len()
}

// Dropped reports how many spans were evicted from the ring.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Spans returns the timeline ring's contents in recording order (oldest
// first).
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Slice()
}

// Totals reports the exact run-wide per-activity aggregates in
// first-emission order. Unlike Spans, totals survive ring eviction.
func (r *Recorder) Totals() []Total {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Total, len(r.aggOrder))
	for i, t := range r.aggOrder {
		out[i] = Total{Name: t.name, Cat: t.cat, Count: t.count, Ticks: t.ticks}
	}
	return out
}
