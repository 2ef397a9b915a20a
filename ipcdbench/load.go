package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"net/http"
	"sync"
	"syscall"
	"time"

	"repro/internal/rng"
	"repro/internal/service"
)

// digest identifies one response line's bytes.
type digest [16]byte

// sample is one completed request as the client saw it.
type sample struct {
	worker int
	id     string // request ID sent, traced phases only
	status int    // 0 for a transport error
	// start, firstLine and end are nanoseconds since the run's origin:
	// request sent, first body line complete, last body byte read.
	start, firstLine, end int64
	lineEnds              []int64 // every line's completion, traced sweep only
	// ref is the reference's median round trip (ns) measured just before
	// the request was sent; 0 where the phase runs no reference.
	ref int64
}

func (s *sample) rtt() int64 { return s.end - s.start }

// fresh is a verified fresh request: its body and the digests of the
// lines it was answered with.
type fresh struct {
	body  []byte
	sweep bool
	lines []digest
}

// checks accumulates what the run will verify against a standalone
// server once the load is over.
type checks struct {
	hot   []map[digest]int64 // per hot point: response digest -> count
	fresh []fresh
}

func newChecks() *checks {
	c := &checks{hot: make([]map[digest]int64, len(hotPoints))}
	for i := range c.hot {
		c.hot[i] = map[digest]int64{}
	}
	return c
}

func (c *checks) merge(o *checks) {
	for i, m := range o.hot {
		for d, n := range m {
			c.hot[i][d] += n
		}
	}
	c.fresh = append(c.fresh, o.fresh...)
}

// genWorker is one closed-loop client: it sends its next request only
// after the previous response's last byte.
type genWorker struct {
	idx    int
	client *http.Client
	url    string // the ingress node's route
	br     *bufio.Reader
	h      hash.Hash // the current line
	hb     hash.Hash // the whole body
	lines  []digest
}

// newGens makes n generator workers; worker i enters through node
// i mod len(nodes) and keeps its own keep-alive connection.
func newGens(st *stack, w *workload, n int) []*genWorker {
	gens := make([]*genWorker, n)
	for i := range gens {
		gens[i] = newGenWorker(st, w, i)
	}
	return gens
}

func closeGens(gens []*genWorker) {
	for _, g := range gens {
		g.client.CloseIdleConnections()
	}
}

func newGenWorker(st *stack, w *workload, idx int) *genWorker {
	route := "/v1/solve"
	if w.sweep {
		route = "/v1/sweep"
	}
	return &genWorker{
		idx:    idx,
		client: st.client(),
		url:    st.nodes[idx%len(st.nodes)].name + route,
		br:     bufio.NewReaderSize(nil, 4096),
		h:      fnv.New128a(),
		hb:     fnv.New128a(),
	}
}

// do sends one request and reads the response line by line, recording
// the digest and completion time of each line.
func (g *genWorker) do(origin time.Time, body []byte, id string, keepLineEnds bool) sample {
	s := sample{worker: g.idx, id: id}
	g.lines = g.lines[:0]
	req, err := http.NewRequest(http.MethodPost, g.url, bytes.NewReader(body))
	if err != nil {
		panic(err) // the URL is built by the benchmark itself
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set(service.RequestIDHeader, id)
	}
	s.start = int64(time.Since(origin))
	resp, err := g.client.Do(req)
	if err != nil {
		s.end = int64(time.Since(origin))
		return s
	}
	g.br.Reset(resp.Body)
	g.h.Reset()
	g.hb.Reset()
	partial := false
	for {
		chunk, err := g.br.ReadSlice('\n')
		if len(chunk) > 0 {
			g.h.Write(chunk)
			g.hb.Write(chunk)
			partial = chunk[len(chunk)-1] != '\n'
			if !partial {
				g.endLine(&s, origin, keepLineEnds)
			}
		}
		if err == bufio.ErrBufferFull {
			continue
		}
		if err == io.EOF {
			if partial {
				g.endLine(&s, origin, keepLineEnds)
			}
			s.status = resp.StatusCode
			break
		}
		if err != nil {
			break // a transport error mid-body: status stays 0
		}
	}
	resp.Body.Close()
	s.end = int64(time.Since(origin))
	if s.firstLine == 0 {
		s.firstLine = s.end
	}
	return s
}

func (g *genWorker) endLine(s *sample, origin time.Time, keep bool) {
	t := int64(time.Since(origin))
	if s.firstLine == 0 {
		s.firstLine = t
	}
	if keep {
		s.lineEnds = append(s.lineEnds, t)
	}
	var d digest
	g.h.Sum(d[:0])
	g.lines = append(g.lines, d)
	g.h.Reset()
}

// phase is one closed-loop load phase's configuration.
type phase struct {
	name     string // also names the phase's sub-stream of the seed
	workers  int
	duration time.Duration
	count    int  // when > 0, each worker sends exactly count requests instead
	traced   bool // stamp request IDs and keep line times
	// ref, when set, is driven in alternation with the workload: before
	// each unloaded sub-block, or after each saturated slice (ref.go).
	ref *refServer
}

// phaseResult is what one phase measured, over every slice it ran.
type phaseResult struct {
	phase
	srcs    []*rng.Source
	next    []int // each worker's next request index
	per     [][]sample
	samples []sample
	elapsed time.Duration
	cpu     time.Duration // process user+sys CPU over the phase
	slices  []sliceStat
	checks  *checks
	ok      int64
	// layers sums the per-layer counters' deltas over the phase.
	layers map[string]float64
}

// sliceLen is how long one phase runs before the next takes over. The
// phases alternate in slices over the whole run so that each samples
// the same spread of machine states: on a shared two-vCPU VM the
// loopback round trip switches between modes ~40% apart on a scale of
// seconds, and back-to-back phases would each catch a different mix.
const sliceLen = time.Second

// runPhases runs the phases in alternating slices until each has had
// its duration (or, with counts, runs each once), and returns their
// results in order.
func runPhases(st *stack, gens []*genWorker, w *workload, seed uint64, origin time.Time, phases []phase) ([]*phaseResult, error) {
	rs := make([]*phaseResult, len(phases))
	for i, p := range phases {
		rs[i] = &phaseResult{phase: p, srcs: phaseSources(seed, p.name, p.workers),
			next: make([]int, p.workers), per: make([][]sample, p.workers),
			checks: newChecks(), layers: map[string]float64{}}
	}
	for {
		ran := false
		for _, r := range rs {
			d := min(sliceLen, r.duration-r.elapsed)
			if r.count > 0 {
				if r.elapsed > 0 {
					continue
				}
				d = 0
			} else if d <= 0 {
				continue
			}
			ran = true
			pinThreads(r.workers == 1) // see pin.go
			st.setCollect(r.traced)
			before := readCounters(st)
			if err := r.slice(gens, w, origin, d); err != nil {
				return nil, err
			}
			if err := st.awaitPushes(); err != nil {
				return nil, err
			}
			for k, v := range readCounters(st) {
				r.layers[k] += v - before[k]
			}
		}
		if !ran {
			break
		}
	}
	pinThreads(false)
	st.setCollect(false)
	for _, r := range rs {
		for i := range r.per {
			r.samples = append(r.samples, r.per[i]...)
		}
		r.per = nil
		r.ok = okCount(r.samples)
	}
	return rs, nil
}

// slice drives the stack with the phase's workers for d, or for count
// requests each, continuing every worker's request stream.
func (r *phaseResult) slice(gens []*genWorker, w *workload, origin time.Time, d time.Duration) error {
	chk := make([]*checks, r.workers)
	perLen := make([]int, r.workers) // this slice's samples per worker
	unloadedRef := r.ref != nil && r.workers == 1
	var refErr error
	cpu0 := cpuTime()
	t0 := time.Now()
	deadline := t0.Add(d)
	var wg sync.WaitGroup
	for i := 0; i < r.workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g, c := gens[i], newChecks()
			var ref int64
			var subEnd time.Time // when the current sub-block ends
			for n := 0; r.count > 0 && n < r.count || r.count == 0 && time.Now().Before(deadline); n++ {
				if unloadedRef && !time.Now().Before(subEnd) {
					if ref, refErr = r.ref.unloaded(); refErr != nil {
						break
					}
					subEnd = time.Now().Add(refSub)
				}
				k := r.next[i]
				r.next[i]++
				req := w.draw(r.srcs[i], k)
				id := ""
				if r.traced {
					id = fmt.Sprintf("%s-w%d-%d", r.name, i, k)
				}
				s := g.do(origin, req.body, id, r.traced && w.sweep)
				s.ref = ref
				r.per[i] = append(r.per[i], s)
				perLen[i]++
				if s.status != http.StatusOK {
					continue
				}
				if req.hot >= 0 {
					var d digest
					c.hot[req.hot][digest(g.hb.Sum(d[:0]))]++
				} else if req.verify {
					c.fresh = append(c.fresh, fresh{body: req.body, sweep: w.sweep,
						lines: append([]digest(nil), g.lines...)})
				}
			}
			chk[i] = c
		}(i)
	}
	wg.Wait()
	if refErr != nil {
		return refErr
	}
	st := sliceStat{elapsed: time.Since(t0), cpu: cpuTime() - cpu0}
	for i := range r.per {
		st.ok += okCount(r.per[i][len(r.per[i])-perLen[i]:])
	}
	if r.ref != nil && r.workers > 1 {
		ref, err := r.ref.saturated(r.workers)
		if err != nil {
			return err
		}
		st.ref = &ref
	}
	r.slices = append(r.slices, st)
	r.elapsed += st.elapsed
	r.cpu += st.cpu
	for _, c := range chk {
		r.checks.merge(c)
	}
	return nil
}

// sliceStat is what one slice of a phase measured.
type sliceStat struct {
	elapsed, cpu time.Duration
	ok           int64
	// ref is the reference driven by the same workers right after a
	// saturated slice; nil without one.
	ref *sliceStat
}

func okCount(samples []sample) int64 {
	var n int64
	for _, s := range samples {
		if s.status == http.StatusOK {
			n++
		}
	}
	return n
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// post sends one request outside the timed phases (pre-warming) and
// returns the status and body.
func post(c *http.Client, url string, body []byte, hdr map[string]string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// serving is the part of a node's GET /metrics body the benchmark reads.
type serving struct {
	Leaders   int64 `json:"leaders"`
	Coalesced int64 `json:"coalesced"`
}

func servingCounters(srv *service.Server) serving {
	var m struct {
		Serving serving `json:"serving"`
	}
	if err := json.Unmarshal(srv.MetricsJSON(), &m); err != nil {
		panic(fmt.Sprintf("decode /metrics: %v", err)) // the server's own encoder
	}
	return m.Serving
}
