package gtpn

import (
	"context"

	"repro/internal/trace"
)

// PointSolver solves nets one at a time, each on the graph of the net
// it solved before: that graph, its resolver included, is reweighted in
// place (graph.reweight), as SweepSolver reuses a graph, and a net whose
// walk deviates from the recorded skeleton is built cold instead. The
// walk verifies the skeleton cell by cell, so a caller need not prove
// that two nets share a shape; nets that usually do (one model at a new
// parameter) are what make the reuse pay.
//
// Unlike SweepSolver it never warm-starts: every stationary solve starts
// uniform, so each solution's bits equal those of a cold, uncached
// SolveContext of the same net under the same options. It never
// consults the solve cache, and counts each solve as bypassed, as an
// uncached SolveContext does.
//
// After an error the solver may hold a partly rewritten graph, and must
// be discarded. Not safe for concurrent use.
type PointSolver struct {
	opts SolveOptions
	g    *graph
}

// NewPointSolver returns a point solver applying opts to every net.
// opts.Uncached is implied and opts.StationaryStart is ignored.
func NewPointSolver(opts SolveOptions) *PointSolver {
	opts = opts.normalize()
	opts.Uncached = true
	opts.StationaryStart = nil
	return &PointSolver{opts: opts}
}

// SolveContext solves n on the solver's kept graph, or on a cold one.
func (p *PointSolver) SolveContext(ctx context.Context, n *Net) (*Solution, error) {
	cacheLookup("", false) // counts the bypass, as an uncached SolveContext does
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sc := trace.ScopeFrom(ctx)
	g, _, err := graphFor(ctx, sc, p.g, n, p.opts.MaxStates)
	if err != nil {
		return nil, err
	}
	p.g = g
	sol, _, err := n.solveOn(ctx, sc, g, p.opts)
	return sol, err
}
