package gtpn

import (
	"context"

	"repro/internal/trace"
)

// SweepSolver solves an ordered sequence of nets, exploiting the two
// regularities of a parameter sweep:
//
//   - Graph reuse. Consecutive nets that share a net shape (see
//     Net.ShapeSignature) have identical reachable state sets, discovery
//     orders, and CSR skeletons — only the edge weights, mean holding
//     times, and expected completions differ. The solver keeps the last
//     point's graph and reweights it in place (graph.reweight) instead of
//     re-exploring, which skips all interning and allocation. The rewrite
//     re-runs the exact cold-build walk in the same order, so the
//     rewritten floats are bit-identical to a cold build's.
//
//   - Warm starts. Neighboring points have nearby stationary
//     distributions, so the previous point's distribution seeds the next
//     point's Gauss-Seidel (SolveOptions.StationaryStart), cutting sweep
//     counts. Because floating-point Gauss-Seidel fixed points are
//     start-dependent at the ulp level, the start vector is part of the
//     numerical contract: the bits a warm solve produces are a
//     deterministic function of the whole chain of nets solved so far,
//     and SolveReferenceSweep reproduces them independently by chaining
//     the same starts through cold reference solves. Warm solves bypass
//     the canonical solve cache in both directions.
//
// A SweepSolver is not safe for concurrent use; run one per goroutine.
type SweepSolver struct {
	opts SolveOptions

	g      *graph
	shape  string
	prevPi []float64
}

// NewSweepSolver returns a sweep solver applying opts to every point.
func NewSweepSolver(opts SolveOptions) *SweepSolver {
	return &SweepSolver{opts: opts.normalize()}
}

// Reset drops the carried graph and warm-start vector, so the next
// SolveNext behaves like the first point of a fresh sweep.
func (s *SweepSolver) Reset() {
	s.g = nil
	s.shape = ""
	s.prevPi = nil
}

// SolveNext solves the next point of the sweep. It never consults or
// populates the solve cache: warm-started bits are chain-specific, not
// canonical. On error the carried state is reset, so a subsequent call
// starts cold.
func (s *SweepSolver) SolveNext(ctx context.Context, n *Net) (*Solution, error) {
	sol, err := s.solveNext(ctx, n)
	if err != nil {
		s.Reset()
		return nil, err
	}
	return sol, nil
}

func (s *SweepSolver) solveNext(ctx context.Context, n *Net) (*Solution, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sc := trace.ScopeFrom(ctx)

	// Only a point that verifiably continues the same-shape chain may
	// reuse the carried graph and warm-start from its distribution. A
	// failed reweight reports the shape contract violation as a plain
	// cold build; the differential harness surfaces such bugs as bit
	// mismatches against the reference chain.
	shape, shapeOK := n.ShapeSignature()
	var prev *graph
	if shapeOK && shape == s.shape {
		prev = s.g
	}
	g, warmable, err := graphFor(ctx, sc, prev, n, s.opts.MaxStates)
	if err != nil {
		return nil, err
	}

	popts := s.opts
	if warmable && s.prevPi != nil {
		popts.StationaryStart = s.prevPi
	}
	sol, pi, err := n.solveOn(ctx, sc, g, popts)
	if err != nil {
		return nil, err
	}

	if shapeOK {
		s.g = g
		s.shape = shape
		s.prevPi = pi
	} else {
		// An unsigned shape can't prove reuse safety for the next point;
		// don't carry anything across it.
		s.Reset()
	}
	return sol, nil
}

// SolveSweep solves every net of an ordered sweep with graph reuse and
// warm starts, returning one solution per net in order. It is
// all-or-nothing: the first failing point aborts the sweep. The solve
// cache is bypassed entirely (see SweepSolver). The result for each
// point is bit-identical to SolveReferenceSweep over the same nets and
// options.
func SolveSweep(ctx context.Context, nets []*Net, opts SolveOptions) ([]*Solution, error) {
	s := NewSweepSolver(opts)
	out := make([]*Solution, len(nets))
	for i, n := range nets {
		sol, err := s.SolveNext(ctx, n)
		if err != nil {
			return nil, err
		}
		out[i] = sol
	}
	return out, nil
}
