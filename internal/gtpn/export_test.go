package gtpn

import "context"

// Benchmark hooks: the flat-layout and reference pipelines exposed to
// the external gtpn_test package so the before/after micro-benchmarks
// can time each stage in isolation.

// BenchGraph is the CSR reachability graph.
type BenchGraph = graph

// NumStates reports the explored state count.
func (g *BenchGraph) NumStates() int { return g.numStates() }

// BenchBuildGraph runs the flat-layout exploration.
func (n *Net) BenchBuildGraph() (*BenchGraph, error) {
	return n.buildGraph(context.Background(), DefaultMaxStates)
}

// BenchSolveStationary runs the CSR stationary phase on a built graph.
func BenchSolveStationary(g *BenchGraph, opts SolveOptions) ([]float64, error) {
	pi, _, _, err := solveStationary(context.Background(), g, opts.normalize())
	return pi, err
}

// BenchRefGraph is the reference (pointer-per-state) reachability graph.
type BenchRefGraph struct {
	states []*stateRec
	init   map[int]float64
}

// NumStates reports the explored state count.
func (g *BenchRefGraph) NumStates() int { return len(g.states) }

// BenchRefBuildGraph runs the reference exploration.
func (n *Net) BenchRefBuildGraph() (*BenchRefGraph, error) {
	states, init, err := n.refBuildGraph(context.Background(), DefaultMaxStates)
	return &BenchRefGraph{states: states, init: init}, err
}

// BenchRefSolveStationary runs the reference stationary phase.
func BenchRefSolveStationary(g *BenchRefGraph, opts SolveOptions) ([]float64, error) {
	pi, _, _, err := refSolveStationary(context.Background(), g.states, g.init, opts.normalize())
	return pi, err
}

// BenchResolver times one instant resolution from the net's initial
// marking: the arena-based resolver against the map-based original.
type BenchResolver struct {
	n     *Net
	r     *resolver
	start []int32
}

// NewBenchResolver prepares a reusable resolver over n's initial marking.
func (n *Net) NewBenchResolver() *BenchResolver {
	br := &BenchResolver{n: n, r: newResolver(n)}
	br.start = make([]int32, len(n.places)+n.firingLen)
	for i, p := range n.places {
		br.start[i] = int32(p.Initial)
	}
	return br
}

// ResolveFlat resolves the initial instant on the flat resolver and
// reports the number of stable outcomes.
func (br *BenchResolver) ResolveFlat() (int, error) {
	if err := br.r.resolve(br.start, 1); err != nil {
		return 0, err
	}
	return len(br.r.outs), nil
}

// ResolveReference resolves the same instant through the retained
// map[string]-keyed path.
func (br *BenchResolver) ResolveReference() (int, error) {
	cfg := br.n.wrap(br.start)
	outs, err := br.n.resolveInstant(cfg, 1)
	if err != nil {
		return 0, err
	}
	return len(outs), nil
}

// CheckSignature reports how n's signatures differ from the fmt
// reference formatter's (see referenceSignature), or nil.
func CheckSignature(n *Net) error { return checkSignature(n) }

// RecordCachedNets starts recording the net behind every solution the
// solve cache stores, so a test can reach nets that a model solve builds
// internally (the §6.6.3 iterates) without exporting the model's
// builders. The returned function stops recording and reports the nets.
func RecordCachedNets() func() []*Net {
	var nets []*Net
	solveCache.mu.Lock()
	defer solveCache.mu.Unlock()
	solveCache.testHookStore = func(n *Net) { nets = append(nets, n) }
	return func() []*Net {
		solveCache.mu.Lock()
		defer solveCache.mu.Unlock()
		solveCache.testHookStore = nil
		return nets
	}
}
