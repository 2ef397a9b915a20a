package main

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/rng"
)

// A workload names one traffic mix. The seed is the only input; the
// servers see nothing but the request bodies generated from it.
type workload struct {
	name    string
	cluster bool // three nodes instead of one
	sweep   bool // POST /v1/sweep streams instead of POST /v1/solve
	// tailPct is the percentile reported as rtt_tail_rel: the highest one
	// that leaves at least ten of the unloaded phase's samples beyond it
	// at the benchmark's run length.
	tailPct float64
	// next draws a phase worker's k-th request from its stream.
	next func(src *rng.Source, k int) request
	// verifyEvery selects which fresh requests are checked against a
	// standalone server: one in verifyEvery, by the stream (1 = all).
	verifyEvery int
	// memCount is how many requests each saturated worker sends before
	// heap_mb is read.
	memCount int
}

var workloads = []*workload{
	{name: "hot", tailPct: 99, next: nextHot, verifyEvery: 1, memCount: 512},
	{name: "cold", tailPct: 99, next: nextCold, verifyEvery: 16, memCount: 256},
	{name: "sweep", sweep: true, tailPct: 80, next: nextSweep, verifyEvery: 1, memCount: 4},
	{name: "cluster", cluster: true, tailPct: 99, next: nextCluster, verifyEvery: 1, memCount: 1024},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// point is one solve request's workload point.
type point struct {
	Arch, N  int
	X        float64
	NonLocal bool
}

func (p point) body() []byte {
	return []byte(`{"arch":` + strconv.Itoa(p.Arch) +
		`,"conversations":` + strconv.Itoa(p.N) +
		`,"server_compute_us":` + strconv.FormatFloat(p.X, 'g', -1, 64) +
		`,"non_local":` + strconv.FormatBool(p.NonLocal) + `}`)
}

// request is one generated request: a solve body or a sweep body.
type request struct {
	body []byte
	pts  []point // the points the body names
	// hot is the index into hotPoints for a hot-set request, -1 for a
	// fresh one. Hot responses are checked per distinct point.
	hot int
	// verify marks a fresh request whose bytes are checked against a
	// standalone server after the run; it is drawn by draw.
	verify bool
}

// draw generates a worker's k-th request, sampling fresh requests for
// verification from the same stream.
func (w *workload) draw(src *rng.Source, k int) request {
	r := w.next(src, k)
	r.verify = r.hot < 0 && (w.verifyEvery == 1 || src.Intn(w.verifyEvery) == 0)
	return r
}

// hotPoints is the local point set ipcload drives: arch 1-4 x
// conversations 1-2 x X in {0, 570, 1140, 2850}.
var hotPoints = func() []point {
	var ps []point
	for arch := 1; arch <= 4; arch++ {
		for n := 1; n <= 2; n++ {
			for _, x := range []float64{0, 570, 1140, 2850} {
				ps = append(ps, point{Arch: arch, N: n, X: x})
			}
		}
	}
	return ps
}()

var hotBodies = func() [][]byte {
	bs := make([][]byte, len(hotPoints))
	for i, p := range hotPoints {
		bs[i] = p.body()
	}
	return bs
}()

// freshX draws a continuous server time in (0, 3000) that is never an
// integer, so no fresh point can equal a hot point (whose X values are
// integers) and two streams collide only with negligible probability.
func freshX(src *rng.Source) float64 {
	x := 3000 * src.Float64()
	if x == math.Trunc(x) {
		x += 0.5
	}
	return x
}

func nextHot(src *rng.Source, _ int) request {
	i := src.Intn(len(hotPoints))
	return request{body: hotBodies[i], pts: hotPoints[i : i+1], hot: i}
}

// nextCold draws a never-seen point: arch 1-4, conversations 1-2, a
// continuous server time, and one in eight non-local with one
// conversation (the non-local fixed point is the expensive solve). The
// classes rotate with the worker's request count, so every phase holds
// them in the same shares: their solve times differ several-fold, and
// drawn at random the shares moved the middle of the round trips by a
// factor of two between seeds.
func nextCold(src *rng.Source, k int) request {
	p := point{X: freshX(src)}
	if k%8 == 7 {
		p.Arch, p.N, p.NonLocal = 1+k/8%4, 1, true
	} else {
		j := k/8*7 + k%8 // local requests before this one
		p.Arch, p.N = 1+j%4, 1+j/4%2
	}
	return request{body: p.body(), pts: []point{p}, hot: -1}
}

// nextCluster draws the hot set plus, one request in sixteen, a fresh
// local one-conversation point (a forwarded or owner-computed miss).
func nextCluster(src *rng.Source, k int) request {
	if src.Intn(16) == 0 {
		p := point{Arch: 1 + src.Intn(4), N: 1, X: freshX(src)}
		return request{body: p.body(), pts: []point{p}, hot: -1}
	}
	return nextHot(src, k)
}

// One stream is a conversations-1 row then a conversations-2 row, each
// over sweepCols server times sweepStep apart.
const (
	sweepCols = 16
	sweepStep = 180.0
)

// nextSweep draws one sweep stream: arch rotating 1-4 with the
// worker's request count, so every phase holds an equal mix, and the X
// grid offset by a continuous seeded value, so that no two streams
// repeat or share a chain prefix (which would coalesce).
func nextSweep(src *rng.Source, k int) request {
	pts := sweepPoints(1+k%4, freshX(src)/10)
	return request{body: sweepBody(pts), pts: pts, hot: -1}
}

func sweepPoints(arch int, off float64) []point {
	var pts []point
	for n := 1; n <= 2; n++ {
		for i := 0; i < sweepCols; i++ {
			pts = append(pts, point{Arch: arch, N: n, X: off + sweepStep*float64(i)})
		}
	}
	return pts
}

func sweepBody(pts []point) []byte {
	b := []byte(fmt.Sprintf(`{"arch":%d,"parallelism":1,"points":[`, pts[0].Arch))
	for i, p := range pts {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"conversations":`...)
		b = strconv.AppendInt(b, int64(p.N), 10)
		b = append(b, `,"server_compute_us":`...)
		b = strconv.AppendFloat(b, p.X, 'g', -1, 64)
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

// phaseSources derives the per-worker streams of one phase. Every
// phase draws its own sub-stream from the seed, and every worker its
// own from the phase's, so adding a phase or a worker never shifts
// another's requests.
func phaseSources(seed uint64, phase string, workers int) []*rng.Source {
	ph := rng.New(seed ^ fnv64(phase))
	srcs := make([]*rng.Source, workers)
	for i := range srcs {
		srcs[i] = ph.Split()
	}
	return srcs
}

func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
