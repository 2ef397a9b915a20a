package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// traceEvent is one Chrome trace-event-format record, which Perfetto
// and chrome://tracing both load.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // µs since the run's origin
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// maxTraceRequests bounds the requests written to the trace file; the
// per-layer metrics use every request.
const maxTraceRequests = 4000

// writePerfetto writes the traced requests as one trace: the generator
// is process 0 with a thread per worker, each node a process with the
// same threads. A node's request span ends when its access record was
// written and lasts total_us; its phases are laid out in execution
// order (decode, route, wait, compute) from the record's durations,
// and the residual is the service's own time.
func writePerfetto(path string, bs []breakdown, nodes []*node, origin time.Time) error {
	pid := map[string]int{}
	ev := []traceEvent{{Name: "process_name", Ph: "M", PID: 0, Args: map[string]any{"name": "generator"}}}
	for i, n := range nodes {
		pid[n.sink.node] = i + 1
		ev = append(ev, traceEvent{Name: "process_name", Ph: "M", PID: i + 1, Args: map[string]any{"name": n.sink.node}})
	}
	server := func(r *accessRec, tid int) {
		end := float64(r.end.Sub(origin).Nanoseconds()) / 1e3
		t := end - float64(r.total)
		p := pid[r.node]
		ev = append(ev, traceEvent{Name: r.route, Ph: "X", TS: t, Dur: float64(r.total), PID: p, TID: tid,
			Args: map[string]any{"id": r.id, "decision": r.decision, "hops": r.hops}})
		for _, ph := range []struct {
			name string
			us   int64
		}{{"decode", r.decode}, {"route", r.route_}, {"wait", r.wait}, {"compute", r.compute}} {
			if ph.us > 0 {
				ev = append(ev, traceEvent{Name: ph.name, Ph: "X", TS: t, Dur: float64(ph.us), PID: p, TID: tid})
				t += float64(ph.us)
			}
		}
	}
	for i := range bs {
		if i == maxTraceRequests {
			break
		}
		b := &bs[i]
		s := b.s
		ev = append(ev, traceEvent{Name: "request", Ph: "X", TS: float64(s.start) / 1e3, Dur: b.rtt,
			PID: 0, TID: s.worker, Args: map[string]any{"id": s.id, "status": s.status, "loopback_us": b.loopback}})
		for _, t := range s.lineEnds {
			ev = append(ev, traceEvent{Name: "line", Ph: "i", S: "t", TS: float64(t) / 1e3, PID: 0, TID: s.worker})
		}
		server(b.in, s.worker)
		if b.owner != nil {
			server(b.owner, s.worker)
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := json.NewEncoder(bw).Encode(map[string]any{"traceEvents": ev}); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
