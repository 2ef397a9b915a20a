package gtpn

import (
	"fmt"
	"math"
	"testing"
)

// mustEqualSolutions fails unless the two solutions agree bitwise on
// every measure — the contract the flat-layout solver is held to
// against the reference path.
func mustEqualSolutions(t *testing.T, name string, got, want *Solution) {
	t.Helper()
	if got.States != want.States || got.DeadStates != want.DeadStates {
		t.Fatalf("%s: states/dead (%d, %d), reference (%d, %d)", name, got.States, got.DeadStates, want.States, want.DeadStates)
	}
	if got.Converged != want.Converged || math.Float64bits(got.Residual) != math.Float64bits(want.Residual) {
		t.Fatalf("%s: converged=%v residual=%x, reference converged=%v residual=%x",
			name, got.Converged, math.Float64bits(got.Residual), want.Converged, math.Float64bits(want.Residual))
	}
	vec := func(field string, g, w []float64) {
		if len(g) != len(w) {
			t.Fatalf("%s: %s has %d entries, reference %d", name, field, len(g), len(w))
		}
		for i := range g {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				t.Fatalf("%s: %s[%d] = %x (%g), reference %x (%g)",
					name, field, i, math.Float64bits(g[i]), g[i], math.Float64bits(w[i]), w[i])
			}
		}
	}
	vec("MeanTokens", got.MeanTokens, want.MeanTokens)
	vec("MeanFiring", got.MeanFiring, want.MeanFiring)
	vec("FiringRate", got.FiringRate, want.FiringRate)
	if len(got.ResourceUsage) != len(want.ResourceUsage) {
		t.Fatalf("%s: ResourceUsage has %d tags, reference %d", name, len(got.ResourceUsage), len(want.ResourceUsage))
	}
	for k, w := range want.ResourceUsage {
		g, ok := got.ResourceUsage[k]
		if !ok || math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: ResourceUsage[%q] = %x, reference %x (present=%v)", name, k, math.Float64bits(g), math.Float64bits(w), ok)
		}
	}
}

// diffSolve runs both paths with the cache out of the way and compares.
func diffSolve(t *testing.T, name string, n *Net, opts SolveOptions) {
	t.Helper()
	opts.Uncached = true
	got, err := n.Solve(opts)
	if err != nil {
		t.Fatalf("%s: Solve: %v", name, err)
	}
	want, err := n.SolveReference(opts)
	if err != nil {
		t.Fatalf("%s: SolveReference: %v", name, err)
	}
	mustEqualSolutions(t, name, got, want)
}

// TestSolveMatchesReferenceOnRandomNets is the differential property
// test: over a family of randomly generated nets the flat solver must
// reproduce the reference solver's Solution byte for byte.
func TestSolveMatchesReferenceOnRandomNets(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		diffSolve(t, fmt.Sprintf("random-%d", seed), randomNet(seed), SolveOptions{})
	}
}

// TestSolveMatchesReferenceOnStructuredNets pins the differential
// contract on the structural corner cases: reducible chains with dead
// absorbing states and chains with live self-loops.
func TestSolveMatchesReferenceOnStructuredNets(t *testing.T) {
	diffSolve(t, "halting", haltingNet(), SolveOptions{})
	diffSolve(t, "selfloop", selfLoopNet(), SolveOptions{})
	// Tight sweep budget forces the non-converged reporting path too.
	diffSolve(t, "selfloop-tight", selfLoopNet(), SolveOptions{MaxSweeps: 2})
}
