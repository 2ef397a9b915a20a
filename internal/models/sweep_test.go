package models

import (
	"context"
	"math"
	"testing"

	"repro/internal/gtpn"
	"repro/internal/timing"
)

// table624XUS is a registry X-grid: Table 6.24's server-time sweep in
// microseconds (a subset in short mode).
func table624XUS(t *testing.T) []float64 {
	if testing.Short() {
		return []float64{0, 1140, 5700}
	}
	return []float64{0, 570, 1140, 2850, 5700, 11400, 22800, 45600}
}

// equalSolutionsBitwise is the models-side mirror of the gtpn harness
// comparator: every exported measure must agree bit for bit.
func equalSolutionsBitwise(t *testing.T, name string, got, want *gtpn.Solution) {
	t.Helper()
	if got.States != want.States || got.DeadStates != want.DeadStates ||
		got.Converged != want.Converged ||
		math.Float64bits(got.Residual) != math.Float64bits(want.Residual) {
		t.Fatalf("%s: header mismatch: got {%d %d %v %x}, want {%d %d %v %x}",
			name, got.States, got.DeadStates, got.Converged, math.Float64bits(got.Residual),
			want.States, want.DeadStates, want.Converged, math.Float64bits(want.Residual))
	}
	vec := func(field string, g, w []float64) {
		if len(g) != len(w) {
			t.Fatalf("%s: %s length %d vs %d", name, field, len(g), len(w))
		}
		for i := range g {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				t.Fatalf("%s: %s[%d] = %x, reference %x", name, field, i,
					math.Float64bits(g[i]), math.Float64bits(w[i]))
			}
		}
	}
	vec("MeanTokens", got.MeanTokens, want.MeanTokens)
	vec("MeanFiring", got.MeanFiring, want.MeanFiring)
	vec("FiringRate", got.FiringRate, want.FiringRate)
	for k, w := range want.ResourceUsage {
		if g := got.ResourceUsage[k]; math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: ResourceUsage[%q] = %x, reference %x", name, k,
				math.Float64bits(g), math.Float64bits(w))
		}
	}
}

// TestRegistryXGridMatchesReferenceSweep is the registry-grid half of
// the sweep differential harness: a real Figure 6.18 X-grid (ArchII,
// n=3, one host — past the dense class limit, so genuinely
// warm-started) solved by the production sweep path must be
// bit-identical to the cold-per-point reference sweep.
func TestRegistryXGridMatchesReferenceSweep(t *testing.T) {
	points := XGridLocal(timing.ArchII, 3, 1, table624XUS(t))
	nets := make([]*gtpn.Net, len(points))
	for i, pt := range points {
		nets[i] = BuildLocal(pt.Arch, pt.N, pt.Hosts, pt.XUS).Net
	}
	opts := SolveOptions{}.gtpnOpts()
	got, err := gtpn.SolveSweep(context.Background(), nets, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := gtpn.SolveReferenceSweep(context.Background(), nets, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		equalSolutionsBitwise(t, points[i].String(), got[i], want[i])
	}
}

// TestXGridSharesShape pins the premise of sweep graph reuse: every
// point of a local X-grid has the same shape signature, for every
// architecture.
func TestXGridSharesShape(t *testing.T) {
	for _, arch := range []timing.Arch{timing.ArchI, timing.ArchII, timing.ArchIII, timing.ArchIV} {
		var shape0 string
		for i, pt := range XGridLocal(arch, 2, 1, []float64{0, 570, 2850, 45600}) {
			shape, ok := BuildLocal(pt.Arch, pt.N, pt.Hosts, pt.XUS).Net.ShapeSignature()
			if !ok {
				t.Fatalf("arch %v x=%g: no shape signature", arch, pt.XUS)
			}
			if i == 0 {
				shape0 = shape
			} else if shape != shape0 {
				t.Fatalf("arch %v x=%g: shape changed across the X grid", arch, pt.XUS)
			}
		}
	}
}

// TestSolveLocalSweepStats: an X-grid builds one graph and reuses it
// for every later point; an n-grid rebuilds per point but solves fine.
func TestSolveLocalSweepStats(t *testing.T) {
	xs := XGridLocal(timing.ArchII, 2, 1, []float64{0, 1140, 5700, 22800})
	gtpn.ResetSolverEngineStats()
	xres, err := SolveLocalSweep(context.Background(), xs, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st := gtpn.SolverEngineStats(); st.GraphsBuilt != 1 || st.GraphsReused != uint64(len(xs)-1) {
		t.Fatalf("X grid: GraphsBuilt=%d GraphsReused=%d, want 1 and %d", st.GraphsBuilt, st.GraphsReused, len(xs)-1)
	}
	for i, r := range xres {
		if r.Throughput <= 0 || r.RoundTrip <= 0 {
			t.Fatalf("X grid point %d: degenerate result %+v", i, r)
		}
	}
	// Throughput falls as server time grows.
	for i := 1; i < len(xres); i++ {
		if xres[i].Throughput >= xres[i-1].Throughput {
			t.Fatalf("throughput not decreasing in X: %v", xres)
		}
	}

	ns := NGridLocal(timing.ArchII, []int{1, 2, 3}, 1, 0)
	gtpn.ResetSolverEngineStats()
	nres, err := SolveLocalSweep(context.Background(), ns, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st := gtpn.SolverEngineStats(); st.GraphsBuilt != uint64(len(ns)) || st.GraphsReused != 0 {
		t.Fatalf("n grid: GraphsBuilt=%d GraphsReused=%d, want %d and 0", st.GraphsBuilt, st.GraphsReused, len(ns))
	}
	// Throughput grows with population in a closed net.
	for i := 1; i < len(nres); i++ {
		if nres[i].Throughput <= nres[i-1].Throughput {
			t.Fatalf("throughput not increasing in n: %v", nres)
		}
	}

	ps := PGridLocal(timing.ArchII, 2, []int{1, 2}, 0)
	pres, err := SolveLocalSweep(context.Background(), ps, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pres) != 2 || pres[1].Throughput < pres[0].Throughput {
		t.Fatalf("P grid: more hosts should not lose throughput: %v", pres)
	}
}

// TestSolveLocalSweepMatchesSolveValues: sweep results agree with the
// canonical per-point solves to solver tolerance (the bits differ on
// warm-started points; the values must not).
func TestSolveLocalSweepMatchesSolveValues(t *testing.T) {
	points := XGridLocal(timing.ArchII, 3, 1, []float64{0, 2850})
	swept, err := SolveLocalSweep(context.Background(), points, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range points {
		single, err := BuildLocal(pt.Arch, pt.N, pt.Hosts, pt.XUS).Solve(SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// The residual tolerance bounds the balance defect, not the solution
		// error; on this stiff chain (stage means up to ~3000 ticks) two
		// converged trajectories can sit ~1e-5 relative apart.
		if d := math.Abs(swept[i].Throughput - single.Throughput); d > 1e-4*single.Throughput {
			t.Fatalf("point %d: sweep throughput %.15g vs solve %.15g", i, swept[i].Throughput, single.Throughput)
		}
	}
}
