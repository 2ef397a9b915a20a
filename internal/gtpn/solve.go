package gtpn

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/trace"
)

// SolveOptions tunes the analytical solver.
type SolveOptions struct {
	// MaxStates bounds the reachability graph; 0 means DefaultMaxStates.
	MaxStates int
	// Tolerance is the steady-state convergence tolerance; 0 means 1e-12.
	Tolerance float64
	// MaxSweeps bounds Gauss-Seidel sweeps; 0 means 200000.
	MaxSweeps int
	// StationaryStart, when non-nil, seeds the iterative stationary solve:
	// indexed by state id in discovery order, it is restricted to each
	// terminal class and normalized as that class's Gauss-Seidel start
	// vector in place of the uniform default (classes where the restriction
	// is unusable — zero mass, negative or non-finite entries, or a length
	// mismatch with the explored graph — fall back to uniform; the direct
	// dense solve ignores it entirely). The start vector is part of the
	// solve's numerical contract: floating-point Gauss-Seidel fixed points
	// are start-dependent at the ulp level, so the solved bits are a
	// deterministic function of (net, options including this start) — and
	// of nothing else. SolveReference honors the same contract, which is
	// what lets the sweep differential harness pin warm-started solves
	// bit-for-bit. Solves with a start vector bypass the solve cache in
	// both directions: their bits are not the canonical (uniform-start)
	// bits the cache stores. The slice is read, never written.
	StationaryStart []float64
	// Uncached makes Solve skip the solve cache: it builds no key, looks
	// nothing up and stores nothing, and counts the solve as bypassed.
	// A caller whose nets never repeat sets it, so its solutions are not
	// kept for the life of the process.
	Uncached bool
}

// normalize fills in the documented defaults.
func (o SolveOptions) normalize() SolveOptions {
	if o.MaxStates <= 0 {
		o.MaxStates = DefaultMaxStates
	}
	if o.Tolerance <= 0 {
		o.Tolerance = 1e-12
	}
	if o.MaxSweeps <= 0 {
		o.MaxSweeps = 200000
	}
	return o
}

// DefaultMaxStates is the default reachability-graph size bound.
const DefaultMaxStates = 2_000_000

// Solution holds the exact steady-state measures of a net.
type Solution struct {
	// States is the number of reachable tangible states.
	States int
	// DeadStates counts reachable states with nothing enabled and nothing
	// in flight (the net halts there).
	DeadStates int
	// MeanTokens[p] is the time-averaged marking of place p.
	MeanTokens []float64
	// MeanFiring[t] is the time-averaged number of in-flight firings of
	// transition t. For a transition with Delay 1 this equals its firing
	// rate per tick.
	MeanFiring []float64
	// FiringRate[t] is the long-run number of firings of transition t
	// completed per tick (valid for zero-delay transitions too).
	FiringRate []float64
	// ResourceUsage maps each resource tag to the time-averaged number of
	// in-flight firings of transitions carrying it: the "resource usage
	// estimate" of the GTPN analyzer.
	ResourceUsage map[string]float64
	// Converged reports whether the steady-state iteration met tolerance.
	Converged bool
	// Residual is the final steady-state balance residual.
	Residual float64

	net *Net
}

// Tokens reports the time-averaged marking of the named place.
func (s *Solution) Tokens(name string) float64 {
	p, ok := s.net.PlaceByName(name)
	if !ok {
		panic(fmt.Sprintf("gtpn: unknown place %q", name))
	}
	return s.MeanTokens[p]
}

// Rate reports the long-run firings per tick of the named transition.
func (s *Solution) Rate(name string) float64 {
	t, ok := s.net.TransByName(name)
	if !ok {
		panic(fmt.Sprintf("gtpn: unknown transition %q", name))
	}
	return s.FiringRate[t]
}

// Usage reports the time-averaged usage of a resource tag (0 if the tag
// is absent from the net).
func (s *Solution) Usage(resource string) float64 {
	return s.ResourceUsage[resource]
}

// Solve builds the reachability graph of the net's embedded Markov chain
// and computes its exact steady state. When the net has a signature (see
// Signature) and opts.Uncached is unset, the result is memoized in the
// process-global solve cache, so re-solving an identically built net —
// a point that several experiments share — returns the stored solution.
func (n *Net) Solve(opts SolveOptions) (*Solution, error) {
	return n.SolveContext(context.Background(), opts)
}

// SolveContext is Solve with cancellation: the state-space exploration
// and the stationary iteration poll ctx and abandon the solve with
// ctx.Err() once it is done. A cancelled solve stores nothing in the
// cache. This is the entry point the serving layer uses to bound request
// deadlines on large non-local models.
func (n *Net) SolveContext(ctx context.Context, opts SolveOptions) (*Solution, error) {
	opts = opts.normalize()
	sc := trace.ScopeFrom(ctx) // nil on untraced requests: every use below is a no-op

	key, usable := n.solveKey(opts)
	if s, ok := cacheLookup(key, usable); ok {
		sc.Instant("gtpn.cache_hit", "gtpn")
		// Re-point the shared solution at this (identical) net so name
		// lookups resolve against the caller's instance.
		cp := *s
		cp.net = n
		return &cp, nil
	}

	// A solve that starts after its deadline should fail up front rather
	// than rely on reaching the periodic polls below (small nets finish
	// before the first one).
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	g, _, err := graphFor(ctx, sc, nil, n, opts.MaxStates)
	if err != nil {
		return nil, err
	}
	sol, _, err := n.solveOn(ctx, sc, g, opts)
	if err != nil {
		return nil, err
	}
	if usable {
		cacheStore(key, sol)
	}
	return sol, nil
}

// solveOn solves g's stationary distribution and reads n's measures
// from it, each phase under its span. It also returns the distribution,
// which a sweep carries as the next point's warm start.
func (n *Net) solveOn(ctx context.Context, sc *trace.Scope, g *graph, opts SolveOptions) (*Solution, []float64, error) {
	sp := sc.Begin("gtpn.stationary", "gtpn")
	pi, converged, residual, err := solveStationary(ctx, g, opts)
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	sp = sc.Begin("gtpn.measures", "gtpn")
	sol := n.measures(g, pi, converged, residual)
	sp.End()
	return sol, pi, nil
}

// cancelCheckInterval is how many units of work (explored states,
// Gauss-Seidel sweeps) pass between context polls; a power of two keeps
// the modulus cheap.
const cancelCheckInterval = 1024

// measures converts the stationary distribution into time-averaged
// observables by one pass over the CSR graph.
func (n *Net) measures(g *graph, pi []float64, converged bool, residual float64) *Solution {
	sol := &Solution{
		States:        g.numStates(),
		MeanTokens:    make([]float64, n.NumPlaces()),
		MeanFiring:    make([]float64, n.NumTransitions()),
		FiringRate:    make([]float64, n.NumTransitions()),
		ResourceUsage: map[string]float64{},
		Converged:     converged,
		Residual:      residual,
		net:           n,
	}
	ns := g.numStates()
	var totalTime float64
	for i := 0; i < ns; i++ {
		totalTime += pi[i] * g.dt[i]
		if g.dead[i] {
			sol.DeadStates++
		}
	}
	if totalTime <= 0 {
		return sol
	}
	np := n.NumPlaces()
	for i := 0; i < ns; i++ {
		w := pi[i] * g.dt[i] / totalTime
		if w == 0 {
			continue
		}
		words := g.words(i)
		cfg := n.wrap(words)
		for p, m := range words[:np] {
			sol.MeanTokens[p] += w * float64(m)
		}
		for t := range n.trans {
			if n.trans[t].Delay == 0 {
				continue
			}
			if c := n.inflightTotal(&cfg, t); c > 0 {
				sol.MeanFiring[t] += w * float64(c)
			}
		}
		for e := g.compPtr[i]; e < g.compPtr[i+1]; e++ {
			sol.FiringRate[g.compT[e]] += pi[i] * g.compVal[e] / totalTime
		}
	}
	n.fillResourceUsage(sol)
	return sol
}

// fillResourceUsage aggregates per-resource usage from the solved
// per-transition means; shared by the CSR and reference measure passes.
// A zero-delay transition has no in-flight firings, so its tag is
// present with nothing added.
func (n *Net) fillResourceUsage(sol *Solution) {
	for t := range n.trans {
		if r := n.trans[t].Resource; r != "" {
			sol.ResourceUsage[r] += sol.MeanFiring[t]
		}
	}
}

// String formats the solution's state counts, convergence and resource
// usages, the tags in sorted order, for debugging output.
func (s *Solution) String() string {
	keys := make([]string, 0, len(s.ResourceUsage))
	for k := range s.ResourceUsage {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := fmt.Sprintf("gtpn.Solution{states: %d, dead: %d, converged: %v", s.States, s.DeadStates, s.Converged)
	for _, k := range keys {
		out += fmt.Sprintf(", %s: %.6g", k, s.ResourceUsage[k])
	}
	return out + "}"
}

// EngineStats counts the analytic engine's structural work since the
// last reset: how many reachability graphs were built, how many states
// and chain edges they contained, and how often the stationary phase
// dispatched independent terminal classes to the parallel worker pool.
// The serving layer exports these under /metrics next to the solve
// cache counters.
type EngineStats struct {
	// GraphsBuilt is the number of reachability graphs constructed
	// (cache hits build nothing).
	GraphsBuilt uint64
	// StatesExplored is the total number of tangible states interned
	// across those graphs.
	StatesExplored uint64
	// EdgesBuilt is the total number of CSR chain edges stored.
	EdgesBuilt uint64
	// ParallelClassSolves counts stationary solves that ran two or more
	// terminal classes concurrently.
	ParallelClassSolves uint64
	// GraphsReused counts solves that reweighted an existing
	// reachability graph instead of building one: a SweepSolver's or a
	// PointSolver's.
	GraphsReused uint64
	// WarmStarts counts iterative class solves seeded from a caller-
	// provided stationary start vector instead of the uniform default.
	WarmStarts uint64
	// StationarySweeps is the total number of Gauss-Seidel sweeps run by
	// iterative class solves (the direct dense path contributes none).
	// Comparing this across a warm-started and a cold solve of the same
	// point is how the sweep tests assert warm starts converge faster.
	StationarySweeps uint64
}

var engineStats struct {
	graphs, states, edges, parallelClassSolves atomic.Uint64
	graphsReused, warmStarts, stationarySweeps atomic.Uint64
}

// SolverEngineStats reports the engine counters.
func SolverEngineStats() EngineStats {
	return EngineStats{
		GraphsBuilt:         engineStats.graphs.Load(),
		StatesExplored:      engineStats.states.Load(),
		EdgesBuilt:          engineStats.edges.Load(),
		ParallelClassSolves: engineStats.parallelClassSolves.Load(),
		GraphsReused:        engineStats.graphsReused.Load(),
		WarmStarts:          engineStats.warmStarts.Load(),
		StationarySweeps:    engineStats.stationarySweeps.Load(),
	}
}

// ResetSolverEngineStats zeroes the engine counters.
func ResetSolverEngineStats() {
	engineStats.graphs.Store(0)
	engineStats.states.Store(0)
	engineStats.edges.Store(0)
	engineStats.parallelClassSolves.Store(0)
	engineStats.graphsReused.Store(0)
	engineStats.warmStarts.Store(0)
	engineStats.stationarySweeps.Store(0)
}
