package trace

import (
	"encoding/json"
	"fmt"
)

// Cross-node trace merging. A cluster node serving one hop of another
// node's traced request records its own spans into a private wall-clock
// recorder, serializes them with MarshalSpans, and returns them in a
// response trailer; the tracing node materializes them with MergeRemote
// as a new process lane, so the final Chrome trace shows one pid per
// node with the hop's server-side work aligned under the forward's RTT.

// remoteSpan is the wire form of one recorded event. Times are recorder
// ticks (nanoseconds for wall recorders) relative to the remote
// recorder's own epoch; the receiver re-bases them onto its timeline.
type remoteSpan struct {
	Name string `json:"n"`
	Cat  string `json:"c,omitempty"`
	Inst bool   `json:"i,omitempty"`
	TS   int64  `json:"t"`
	Dur  int64  `json:"d,omitempty"`
}

// MarshalSpans serializes the timeline ring (oldest first) compactly
// for transport to another recorder. Nil-safe: a nil recorder yields
// nil.
func (r *Recorder) MarshalSpans() []byte {
	if r == nil {
		return nil
	}
	spans := r.Spans()
	out := make([]remoteSpan, 0, len(spans))
	for _, s := range spans {
		out = append(out, remoteSpan{
			Name: s.Name,
			Cat:  s.Cat,
			Inst: s.Kind == KindInstant,
			TS:   s.Start,
			Dur:  s.Dur,
		})
	}
	b, err := json.Marshal(out)
	if err != nil {
		return nil
	}
	return b
}

// MergeRemote materializes another node's serialized spans as a fresh
// process lane named node, each span's start shifted by offTicks — the
// local time at which the remote hop began (for a forward: the moment
// the request left this node). Remote spans land on the timeline only,
// never in the breakdown totals: Totals stays "what this node itself
// did". Both recorders must use the same tick unit (wall recorders:
// nanoseconds). Nil-safe and best-effort: malformed data is reported and
// merges nothing, empty data is ignored. The data comes from a peer, so
// a span with a negative start or duration, or whose re-based start is
// negative or overflows, makes the whole set malformed.
func (r *Recorder) MergeRemote(node string, data []byte, offTicks int64) error {
	if r == nil || len(data) == 0 {
		return nil
	}
	var spans []remoteSpan
	if err := json.Unmarshal(data, &spans); err != nil {
		return err
	}
	for _, s := range spans {
		// With s.TS >= 0, a sum that overflows wraps negative.
		if s.TS < 0 || s.Dur < 0 || s.TS+offTicks < 0 {
			return fmt.Errorf("trace: remote span %q: start %d, duration %d at offset %d", s.Name, s.TS, s.Dur, offTicks)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// Allocate the next free pid. Unregistered spans implicitly use pid
	// 0, so allocation starts above it even when nothing is registered.
	var proc int32 = 1
	for _, p := range r.procs {
		if p.id >= proc {
			proc = p.id + 1
		}
	}
	r.procs = append(r.procs, procMeta{id: proc, name: node})
	r.nextTrack++
	track := r.nextTrack
	r.tracks = append(r.tracks, trackMeta{proc: proc, id: track, name: node})
	for _, s := range spans {
		kind := KindSpan
		if s.Inst {
			kind = KindInstant
		}
		r.push(Span{Name: s.Name, Cat: s.Cat, Proc: proc, Track: track,
			Kind: kind, Start: s.TS + offTicks, Dur: s.Dur, Arg: -1})
	}
	return nil
}
