// Package obs gives the serving fleet a self-model. The paper's thesis
// is that IPC performance must be measured against a model to know when
// the system is healthy — core.CrossCheck does that for the simulated
// substrates; this package does it for the serving tier itself. Three
// deterministic pieces:
//
//   - Tracker: rolling multi-window SLO burn rates (availability and
//     latency objectives) computed incrementally with integer math over
//     fixed-capacity window rings — zero allocations on the request
//     path.
//   - PeerHealth: a healthy→degraded→unreachable hysteresis state
//     machine over probe outcomes, with an integer RTT EWMA, so the
//     forwarding tier can skip known-dead owners proactively.
//   - Journal: a fixed-capacity ring of structured events (membership
//     changes, drain, peer transitions, SLO breaches, shed episodes,
//     cache high-water marks), each also emitted as a slog record.
//
// Everything here is a pure state machine driven by explicit
// observations and ticks: no goroutines, no clocks of its own, so tests
// (and the cluster merge) are deterministic.
package obs

import (
	"context"
	"log/slog"
	"sync"
	"time"

	"repro/internal/ringbuf"
)

// Event type names recorded by the subsystems wired into the journal.
// One flat namespace keeps /debug/events greppable across the fleet.
const (
	EventMembership = "membership"  // cluster member joined/left (epoch bump)
	EventDrain      = "drain"       // drain began / completed
	EventPeerHealth = "peer_health" // a peer crossed a health-state boundary
	EventSLO        = "slo"         // an SLO window breached / recovered
	EventShed       = "shed"        // a load-shedding episode began
	EventRespCache  = "resp_cache"  // response cache crossed a high-water mark
)

// Event is one structured journal entry. Seq is the journal's own
// per-node sequence; together with UnixMS and the node tag added by the
// cluster merge it gives the fleet-wide (unix_ms, node, seq) order every
// merged timeline in this repository uses.
type Event struct {
	UnixMS  int64  `json:"unix_ms"`
	Seq     int64  `json:"seq"`
	Type    string `json:"type"`
	Subject string `json:"subject"`
	Detail  string `json:"detail"`
}

// Journal is a fixed-capacity ring of events. A nil *Journal is a valid
// no-op — every subsystem takes one optionally and calls Record without
// checking.
type Journal struct {
	mu     sync.Mutex
	ring   *ringbuf.Ring[Event]
	seq    int64
	node   string
	logger *slog.Logger
	now    func() time.Time
}

// NewJournal creates a journal retaining the last capacity events
// (capacity <= 0 means 256). Each recorded event is also emitted as a
// slog record tagged with node when logger is non-nil.
func NewJournal(capacity int, logger *slog.Logger, node string) *Journal {
	if capacity <= 0 {
		capacity = 256
	}
	return &Journal{
		ring:   ringbuf.New[Event](capacity),
		node:   node,
		logger: logger,
		now:    time.Now,
	}
}

// SetNow overrides the journal's clock — a test aid for deterministic
// timestamps.
func (j *Journal) SetNow(fn func() time.Time) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.now = fn
	j.mu.Unlock()
}

// Record appends one event (nil-safe no-op). The event lands in the
// ring and, when the journal has a logger, in the structured log under
// msg "event" with the node name attached.
func (j *Journal) Record(typ, subject, detail string) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.seq++
	ev := Event{
		UnixMS:  j.now().UnixMilli(),
		Seq:     j.seq,
		Type:    typ,
		Subject: subject,
		Detail:  detail,
	}
	j.ring.Push(ev)
	lg := j.logger
	node := j.node
	j.mu.Unlock()
	if lg != nil {
		lg.LogAttrs(context.Background(), slog.LevelInfo, "event",
			slog.String("node", node),
			slog.String("type", typ),
			slog.String("subject", subject),
			slog.String("detail", detail),
			slog.Int64("seq", ev.Seq),
		)
	}
}

// Events returns the retained events, oldest first (nil-safe).
func (j *Journal) Events() []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ring.Slice()
}

// Capacity reports the ring size (0 for a nil journal).
func (j *Journal) Capacity() int {
	if j == nil {
		return 0
	}
	return j.ring.Cap()
}
