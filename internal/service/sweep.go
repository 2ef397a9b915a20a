// POST /v1/sweep: solve an ordered grid of workload points and stream
// one NDJSON line per point, in grid order, as each solve completes.
//
// The handler is built around the sweep-native solver's warm chain
// (core.SweepAnalyzer): consecutive points with the same conversation
// count form a "row" sharing one reachability graph, each point
// warm-started from its predecessor. Rows are independent chains, each
// solved on its own analyzer, so requesting parallelism > 1 solves rows
// concurrently — and because a point's bytes depend only on its own
// row's chain, the streamed body is byte-identical at any parallelism.
//
// Unlike /v1/solve, a sweep computes under the REQUEST context: a
// client that disconnects mid-stream cancels the in-flight solve
// (nothing is cached — sweep solves bypass the solve cache by design).
package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/core"
)

// sweepPointSpec is one grid point of a sweep request.
type sweepPointSpec struct {
	Conversations   int     `json:"conversations"`
	ServerComputeUS float64 `json:"server_compute_us"`
}

// sweepRequest is the body of POST /v1/sweep.
type sweepRequest struct {
	Arch        int              `json:"arch"`
	Hosts       int              `json:"hosts"`
	NonLocal    bool             `json:"non_local"`
	Parallelism int              `json:"parallelism"`
	Points      []sweepPointSpec `json:"points"`
}

// maxSweepPoints bounds one request's grid.
const maxSweepPoints = 64

func (q *sweepRequest) validate() error {
	if len(q.Points) == 0 {
		return errors.New("points must not be empty")
	}
	if len(q.Points) > maxSweepPoints {
		return fmt.Errorf("at most %d points per sweep", maxSweepPoints)
	}
	if q.Parallelism == 0 {
		q.Parallelism = 1
	}
	if q.Parallelism < 1 || q.Parallelism > 4 {
		return errors.New("parallelism must be 1..4")
	}
	for i, pt := range q.Points {
		sr := solveRequest{Arch: q.Arch, Conversations: pt.Conversations,
			ServerComputeUS: pt.ServerComputeUS, Hosts: q.Hosts, NonLocal: q.NonLocal}
		if err := sr.validate(); err != nil {
			return fmt.Errorf("point %d: %s", i, err)
		}
		q.Hosts = sr.Hosts // validate defaults Hosts to 1
	}
	return nil
}

func (q *sweepRequest) workload(i int) core.Workload {
	return core.Workload{
		Conversations:   q.Points[i].Conversations,
		ServerComputeUS: q.Points[i].ServerComputeUS,
		NonLocal:        q.NonLocal,
	}
}

// sweepRow is a maximal run of consecutive points forming one warm
// chain: same conversation count, local workload. Non-local points are
// solved per point, so they row alone.
type sweepRow struct {
	start, end int // points[start:end]
}

func (q *sweepRequest) rows() []sweepRow {
	var rows []sweepRow
	for i := 0; i < len(q.Points); {
		j := i + 1
		if !q.NonLocal {
			for j < len(q.Points) && q.Points[j].Conversations == q.Points[i].Conversations {
				j++
			}
		}
		rows = append(rows, sweepRow{start: i, end: j})
		i = j
	}
	return rows
}

// sweepLine is one emitted NDJSON line; fail marks a terminal error
// line, after which the stream ends.
type sweepLine struct {
	body []byte
	fail bool
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var q sweepRequest
	if !s.decodeValid(w, r, &q) {
		return
	}
	// One admission slot covers the whole stream: a sweep is one
	// computation from the pool's point of view, however many points it
	// solves.
	rec := recordOf(w)
	release, refused := s.admit(r.Context(), rec)
	if release == nil {
		writeDet(w, refused.status, refused.header, refused.body)
		return
	}
	defer release()
	rec.setDecision(decisionLocalCompute)
	if s.testHookAdmitted != nil {
		s.testHookAdmitted("sweep")
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	rows := q.rows()
	// Every row's channel is buffered to its full length, so a row worker
	// can always run to completion without blocking on the emitter.
	out := make([]chan sweepLine, len(rows))
	for i, row := range rows {
		out[i] = make(chan sweepLine, row.end-row.start)
	}
	workers := q.Parallelism
	if workers > len(rows) {
		workers = len(rows)
	}
	next := make(chan int, len(rows))
	for i := range rows {
		next <- i
	}
	close(next)
	for wk := 0; wk < workers; wk++ {
		go func() {
			for i := range next {
				s.runSweepRow(ctx, &q, rows[i], out[i])
			}
		}()
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	for i := range rows {
		for ln := range out[i] {
			w.Write(ln.body) // marshalDet bodies are newline-terminated
			if flusher != nil {
				flusher.Flush()
			}
			if ln.fail {
				cancel() // stop rows still computing; their lines are never read
				return
			}
		}
	}
}

// runSweepRow solves one row's points in chain order on the row's own
// analyzer and sends the emitted lines. The channel closes when the row
// is done or a point fails.
func (s *Server) runSweepRow(ctx context.Context, q *sweepRequest, row sweepRow, out chan<- sweepLine) {
	defer close(out)
	a := s.system(q.Arch, q.Hosts).NewSweepAnalyzer()
	for i := row.start; i < row.end; i++ {
		pred, err := a.AnalyzeNext(ctx, q.workload(i))
		s.metrics.inc(fLeaders)
		if s.testHookSweepPoint != nil {
			s.testHookSweepPoint(ctx, i, err)
		}
		// Never blocks: out is buffered to the row's full length.
		out <- sweepPointLine(q, i, pred, err)
		if err != nil {
			return
		}
	}
}

// sweepPointLine encodes point i's NDJSON line; an error line is
// terminal.
func sweepPointLine(q *sweepRequest, i int, pred core.Prediction, err error) sweepLine {
	if err != nil {
		return sweepLine{body: marshalDet(map[string]any{"error": err.Error(), "index": i}), fail: true}
	}
	return sweepLine{body: marshalDet(map[string]any{
		"arch":              q.Arch,
		"conversations":     q.Points[i].Conversations,
		"hosts":             q.Hosts,
		"index":             i,
		"non_local":         q.NonLocal,
		"offered_load":      pred.OfferedLoad,
		"round_trip_us":     pred.RoundTripUS,
		"server_compute_us": q.Points[i].ServerComputeUS,
		"states":            pred.States,
		"throughput_rps":    pred.Throughput,
	})}
}
