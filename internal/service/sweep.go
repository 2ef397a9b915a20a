// POST /v1/sweep: solve an ordered grid of workload points and stream
// one NDJSON line per point, in grid order, as each solve completes.
//
// The handler is built around the sweep-native solver's warm chain
// (core.SweepAnalyzer): consecutive points with the same conversation
// count form a "row" sharing one reachability graph, each point
// warm-started from its predecessor. Rows are independent chains, so
// requesting parallelism > 1 solves rows concurrently — and because a
// point's bytes depend only on its own row's chain, the streamed body
// is byte-identical at any parallelism. Each point is coalesced through
// its own singleflight keyed by the row's chain prefix, so concurrent
// identical sweeps pay for one solve per point.
//
// Unlike /v1/solve, a sweep leader computes under the REQUEST context:
// a client that disconnects mid-stream cancels the in-flight solve
// (nothing is cached — sweep solves bypass the solve cache by design).
// A follower whose leader was cancelled retries and becomes the leader,
// replaying its row's chain prefix to reproduce the exact warm-start
// bits before solving on.
package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
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

// chainKey names point i's solve for coalescing: the request's shape
// parameters plus the whole chain prefix of its row, because a
// warm-started point's bits are a function of every point solved before
// it on the same graph. The absolute index rides along so coalesced
// bodies (which echo the index) are interchangeable.
func (q *sweepRequest) chainKey(row sweepRow, i int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "sweep|a=%d|h=%d|nl=%t|i=%d|chain=", q.Arch, q.Hosts, q.NonLocal, i)
	for j := row.start; j <= i; j++ {
		fmt.Fprintf(&b, "n=%d,x=%s;", q.Points[j].Conversations, formatFloatKey(q.Points[j].ServerComputeUS))
	}
	return b.String()
}

// sweepLine is one emitted NDJSON line; fail marks a terminal error
// line, after which the stream ends.
type sweepLine struct {
	body []byte
	fail bool
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	rec := recordOf(w)
	sc := trace.ScopeFrom(r.Context())
	var q sweepRequest
	sp := sc.Begin("decode", "serve")
	t0 := time.Now()
	decoded := s.decodeBody(w, r, &q)
	rec.setDecodeUS(time.Since(t0))
	sp.End()
	if !decoded {
		return
	}
	// Read the request body through EOF: net/http only starts the
	// connection's background read — the mechanism that turns a client
	// disconnect into request-context cancellation — once the body has
	// been consumed, and json.Decode stops at the end of the value
	// without observing EOF. A sweep can compute for a long time between
	// writes, so without this a vanished client is only noticed on the
	// next (failed) write, not by the in-flight solve.
	io.Copy(io.Discard, r.Body)
	if err := q.validate(); err != nil {
		writeErr(w, http.StatusBadRequest, err.Error(), nil)
		return
	}

	// One admission slot covers the whole stream: a sweep is one
	// computation from the pool's point of view, however many points it
	// solves.
	wsp := sc.Begin("admission.wait", "serve")
	t1 := time.Now()
	release, ok, full := s.acquire(r.Context())
	rec.setWaitUS(time.Since(t1))
	wsp.End()
	if full {
		writeDet(w, http.StatusTooManyRequests, map[string]string{"Retry-After": "1"},
			marshalDet(map[string]any{"error": "admission queue full"}))
		return
	}
	if !ok {
		writeErr(w, http.StatusServiceUnavailable, "request cancelled while queued", nil)
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

// runSweepRow solves one row's points in chain order, coalescing each
// point through the sweep flight group, and sends the emitted lines.
// The channel closes when the row is done or aborted.
func (s *Server) runSweepRow(ctx context.Context, q *sweepRequest, row sweepRow, out chan<- sweepLine) {
	defer close(out)
	a := s.system(q.Arch, q.Hosts).NewSweepAnalyzer()
	// solvedThrough is the last point index our own analyzer has solved;
	// whenever we become a point's leader out of sequence (we followed
	// earlier points, or an error reset the chain), the prefix is
	// replayed first so the warm-start bits match the chain contract.
	solvedThrough := row.start - 1
	for i := row.start; i < row.end; i++ {
		key := q.chainKey(row, i)
		var res flightResult
		for attempt := 0; ; attempt++ {
			fr, leader, err := s.sweepFlights.do(ctx, key, func() flightResult {
				if solvedThrough != i-1 {
					a.Reset()
					for j := row.start; j < i; j++ {
						if _, err := a.AnalyzeNext(ctx, q.workload(j)); err != nil {
							solvedThrough = row.start - 2
							return s.sweepPointResult(ctx, q, j, core.Prediction{}, err)
						}
					}
				}
				pred, err := a.AnalyzeNext(ctx, q.workload(i))
				if err != nil {
					solvedThrough = row.start - 2
				} else {
					solvedThrough = i
				}
				if s.testHookSweepPoint != nil {
					s.testHookSweepPoint(ctx, i, err)
				}
				return s.sweepPointResult(ctx, q, i, pred, err)
			})
			if err != nil {
				return // our client is gone and we were only following
			}
			if !leader && fr.status == 0 {
				// The flight's leader was cancelled mid-solve; its result is
				// not a real answer. Retry — the flight is gone, so we (or
				// another waiter) become the new leader and replay the chain.
				if attempt < 8 {
					continue
				}
			}
			if leader {
				s.metrics.inc(fLeaders)
			} else {
				s.metrics.inc(fCoalesced)
				// Following advanced the stream but not our analyzer: the
				// next leadership must replay.
				solvedThrough = row.start - 2
			}
			res = fr
			break
		}
		// Never blocks: out is buffered to the row's full length.
		out <- sweepLine{body: res.body, fail: res.status != http.StatusOK}
		if res.status != http.StatusOK {
			return
		}
	}
}

// sweepPointResult encodes one point's NDJSON line. A cancelled leader
// publishes status 0 — a retry marker for followers, and a terminal
// error line for the leader's own stream.
func (s *Server) sweepPointResult(ctx context.Context, q *sweepRequest, i int, pred core.Prediction, err error) flightResult {
	if err != nil {
		status := http.StatusInternalServerError
		if ctx.Err() != nil || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			status = 0
		}
		return flightResult{status: status,
			body: marshalDet(map[string]any{"error": err.Error(), "index": i})}
	}
	body := map[string]any{
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
	}
	return flightResult{status: http.StatusOK, body: marshalDet(body)}
}
