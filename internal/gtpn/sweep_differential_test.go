package gtpn

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

// sweepModelNet builds an ArchII-local-like irreducible net with
// geometric stages: n conversations over one host and one message
// processor, with x the extra server compute time. Every frequency is a
// strictly positive constant for all x > -199, so varying x moves only
// the weights — the shape signature is invariant across the sweep. At
// n=2 the chain stays under the dense class limit; n=3 exceeds it and
// exercises the iterative warm-started path.
func sweepModelNet(n int, x float64) *Net {
	b := NewBuilder()
	clients := b.Place("Clients", n)
	servers := b.Place("Servers", n)
	host := b.Place("Host", 1)
	mp := b.Place("MP", 1)
	sentC := b.Place("SentC", 0)
	rcvdS := b.Place("RcvdS", 0)
	srvReady := b.Place("SrvReady", 0)
	sendQ := b.Place("SendQ", 0)
	recvQ := b.Place("RecvQ", 0)
	replyQ := b.Place("ReplyQ", 0)
	stage := func(name string, in, res PlaceID, m float64, outs ...PlaceID) {
		p := 1 / m
		b.Transition(name).From(in, res).To(append(outs, res)...).Delay(1).FreqConst(p)
		if p < 1 {
			b.Transition(name+".loop").From(in, res).To(in, res).Delay(1).FreqConst(1 - p)
		}
	}
	stage("THostClient", clients, host, 97, sendQ)
	stage("TSend", sendQ, mp, 330, sentC)
	stage("THostServer", servers, host, 97, recvQ)
	stage("TRecv", recvQ, mp, 300, rcvdS)
	b.Transition("TMatch").From(sentC, rcvdS, mp).To(srvReady, mp).Delay(1).FreqConst(1 / 180.0)
	b.Transition("TMatch.loop").From(sentC, rcvdS, mp).To(sentC, rcvdS, mp).Delay(1).FreqConst(1 - 1/180.0)
	stage("TCompute", srvReady, host, 200+x, replyQ)
	stage("TReply", replyQ, mp, 414, clients, servers)
	return b.MustBuild()
}

// randomShapedNet is randomNet's shape-stable cousin: the structure is a
// function of seed alone, while shift perturbs every stage's mean
// service time. Nets with the same seed and different shifts therefore
// share a shape signature, which is exactly what a randomized same-shape
// sweep grid needs. Unlike randomNet it uses FreqConst, so the nets are
// fully signed.
func randomShapedNet(seed uint64, shift float64) *Net {
	src := rng.New(seed)
	b := NewBuilder()
	nStages := 2 + src.Intn(3)
	places := make([]PlaceID, nStages)
	for i := range places {
		init := 0
		if i == 0 {
			init = 1 + src.Intn(2)
		}
		places[i] = b.Place(names[i], init)
	}
	var res PlaceID
	hasRes := src.Intn(2) == 0
	if hasRes {
		res = b.Place("Res", 1)
	}
	for i := range places {
		next := places[(i+1)%nStages]
		mean := float64(2+src.Intn(8)) + shift
		p := 1 / mean
		tn := "T" + names[i]
		useRes := hasRes && src.Intn(2) == 0
		endIn := []PlaceID{places[i]}
		endOut := []PlaceID{next}
		if useRes {
			endIn = append(endIn, res)
			endOut = append(endOut, res)
		}
		b.Transition(tn).From(endIn...).To(endOut...).Delay(1).FreqConst(p).Resource("r" + names[i])
		b.Transition(tn + ".loop").From(endIn...).To(endIn...).Delay(1).FreqConst(1 - p)
	}
	return b.MustBuild()
}

// diffSweep runs the production sweep solver and the cold-per-point
// reference sweep over the same nets and demands bitwise agreement on
// every point.
func diffSweep(t *testing.T, name string, nets []*Net, opts SolveOptions) {
	t.Helper()
	got, err := SolveSweep(context.Background(), nets, opts)
	if err != nil {
		t.Fatalf("%s: SolveSweep: %v", name, err)
	}
	want, err := SolveReferenceSweep(context.Background(), nets, opts)
	if err != nil {
		t.Fatalf("%s: SolveReferenceSweep: %v", name, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d solutions, reference %d", name, len(got), len(want))
	}
	for i := range got {
		mustEqualSolutions(t, fmt.Sprintf("%s[%d]", name, i), got[i], want[i])
	}
}

// TestSolveSweepMatchesReferenceSweep is the sweep differential
// harness: on same-shape grids — where the production path reweights a
// reused graph in place and warm-starts Gauss-Seidel from the previous
// point — every point must still be bit-identical to an independent
// cold reference build solved under the same start contract.
func TestSolveSweepMatchesReferenceSweep(t *testing.T) {
	// Dense path (n=2 stays under denseClassLimit): warm starts are
	// ignored, graph reuse still exercised.
	dense := []*Net{
		sweepModelNet(2, 2500), sweepModelNet(2, 2850),
		sweepModelNet(2, 3200), sweepModelNet(2, 3600),
	}
	diffSweep(t, "dense-x-grid", dense, SolveOptions{})

	// Iterative path (n=3 exceeds denseClassLimit): warm-started
	// Gauss-Seidel, whose bits depend on the whole chain of starts.
	if !testing.Short() {
		iter := []*Net{
			sweepModelNet(3, 2500), sweepModelNet(3, 2850),
			sweepModelNet(3, 3200), sweepModelNet(3, 3600),
		}
		diffSweep(t, "iterative-x-grid", iter, SolveOptions{})
	}
}

// TestSolveSweepMatchesReferenceOnRandomGrids extends the harness to
// randomized structures: for each seed, a same-shape grid obtained by
// shifting every mean service time.
func TestSolveSweepMatchesReferenceOnRandomGrids(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 3
	}
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		nets := make([]*Net, 0, 4)
		for _, shift := range []float64{0, 0.5, 1.25, 3} {
			nets = append(nets, randomShapedNet(seed, shift))
		}
		shape0, ok := nets[0].ShapeSignature()
		if !ok {
			t.Fatalf("seed %d: net has no shape signature", seed)
		}
		for i, n := range nets[1:] {
			if s, ok := n.ShapeSignature(); !ok || s != shape0 {
				t.Fatalf("seed %d: grid point %d changed shape", seed, i+1)
			}
		}
		diffSweep(t, fmt.Sprintf("random-grid-%d", seed), nets, SolveOptions{})
	}
}

// TestSolveSweepShapeChangesAndUnsignedPoints pins the chain-reset
// rules: a shape change mid-grid rebuilds and restarts the warm chain,
// and an unsigned point (no shape signature) breaks the chain on both
// sides — in lockstep on both pipelines.
func TestSolveSweepShapeChangesAndUnsignedPoints(t *testing.T) {
	nets := []*Net{
		sweepModelNet(2, 2850),
		sweepModelNet(2, 3200), // same shape: reuse + (dense) warm contract
		sweepModelNet(1, 2850), // population change: new shape, rebuild
		sweepModelNet(1, 3200),
		randomNet(7), // Freq() net: unsigned, breaks the chain
		sweepModelNet(1, 3600),
	}
	ResetSolverEngineStats()
	diffSweep(t, "mixed-grid", nets, SolveOptions{})
	if st := SolverEngineStats(); st.GraphsReused != 2 {
		t.Fatalf("GraphsReused = %d, want 2 (points 1 and 3)", st.GraphsReused)
	}
}

// TestSolveSweepEngineStats asserts the sweep engine's bookkeeping on a
// same-shape iterative grid: one cold build, every later point reusing
// the graph and warm-starting its single terminal class.
func TestSolveSweepEngineStats(t *testing.T) {
	if testing.Short() {
		t.Skip("iterative-scale grid is slow")
	}
	nets := []*Net{
		sweepModelNet(3, 2500), sweepModelNet(3, 2850),
		sweepModelNet(3, 3200), sweepModelNet(3, 3600),
	}
	ResetSolverEngineStats()
	if _, err := SolveSweep(context.Background(), nets, SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	st := SolverEngineStats()
	if st.GraphsBuilt != 1 {
		t.Fatalf("GraphsBuilt = %d, want 1", st.GraphsBuilt)
	}
	if st.GraphsReused != uint64(len(nets)-1) {
		t.Fatalf("GraphsReused = %d, want %d", st.GraphsReused, len(nets)-1)
	}
	// The chain is irreducible: one terminal class per point, so every
	// point after the first warm-starts exactly once.
	if st.WarmStarts != uint64(len(nets)-1) {
		t.Fatalf("WarmStarts = %d, want %d", st.WarmStarts, len(nets)-1)
	}
	if st.StationarySweeps == 0 {
		t.Fatal("StationarySweeps = 0, want iterative work")
	}
}

// sweepCountOf solves the given chain with the sweep solver and returns
// the cumulative Gauss-Seidel sweep count it cost.
func sweepCountOf(t *testing.T, nets []*Net) uint64 {
	t.Helper()
	ResetSolverEngineStats()
	if _, err := SolveSweep(context.Background(), nets, SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	return SolverEngineStats().StationarySweeps
}

// TestSweepWarmStartConvergesFaster is the iteration-count half of the
// warm-start claim: seeding point k's Gauss-Seidel from point k-1's
// distribution must reach tolerance in strictly fewer sweeps than the
// canonical cold (uniform-start) solve of the same point — while
// TestSolveSweepMatchesReferenceSweep separately pins what those warm
// bits are.
func TestSweepWarmStartConvergesFaster(t *testing.T) {
	if testing.Short() {
		t.Skip("iterative-scale grid is slow")
	}
	p0 := sweepModelNet(3, 2850)
	p1 := sweepModelNet(3, 3200)

	cold0 := sweepCountOf(t, []*Net{p0})
	cold1 := sweepCountOf(t, []*Net{p1})
	chain := sweepCountOf(t, []*Net{p0, p1})
	warm1 := chain - cold0
	if cold1 == 0 || warm1 == 0 {
		t.Fatalf("expected iterative solves, got cold1=%d warm1=%d", cold1, warm1)
	}
	if warm1 >= cold1 {
		t.Fatalf("warm start did not converge faster: %d sweeps warm, %d cold", warm1, cold1)
	}
	t.Logf("point 1: %d sweeps warm vs %d cold", warm1, cold1)
}

// TestSweepWarmStartSameFixedPoint is the value half of the warm-start
// claim: the warm-started solve lands on the same stationary fixed
// point as the canonical cold solve up to solver tolerance — the start
// vector changes the trajectory (and hence the ulp-level bits), never
// the answer.
func TestSweepWarmStartSameFixedPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("iterative-scale grid is slow")
	}
	nets := []*Net{sweepModelNet(3, 2850), sweepModelNet(3, 3200)}
	swept, err := SolveSweep(context.Background(), nets, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := sweepModelNet(3, 3200).Solve(SolveOptions{Uncached: true})
	if err != nil {
		t.Fatal(err)
	}
	warm := swept[1]
	if !warm.Converged || !cold.Converged {
		t.Fatalf("converged: warm=%v cold=%v", warm.Converged, cold.Converged)
	}
	closeTo := func(field string, g, w []float64) {
		for i := range g {
			// The residual tolerance (1e-12) bounds the balance defect, not
			// the solution error; 1e-6 is comfortably inside what two
			// trajectories to the same fixed point can differ by.
			if d := math.Abs(g[i] - w[i]); d > 1e-6*math.Max(1, math.Abs(w[i])) {
				t.Fatalf("%s[%d]: warm %g vs cold %g (diff %g)", field, i, g[i], w[i], d)
			}
		}
	}
	closeTo("MeanTokens", warm.MeanTokens, cold.MeanTokens)
	closeTo("FiringRate", warm.FiringRate, cold.FiringRate)
}

// TestSolveSweepBypassesCache: warm-started bits are chain-specific, so
// a sweep must neither read nor seed the canonical solve cache.
func TestSolveSweepBypassesCache(t *testing.T) {
	ResetSolveCache()
	defer ResetSolveCache()

	nets := []*Net{sweepModelNet(2, 2850), sweepModelNet(2, 3200)}
	if _, err := SolveSweep(context.Background(), nets, SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	if st := SolveCacheStats(); st.Entries != 0 || st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("sweep touched the solve cache: %+v", st)
	}
}

// TestSolveSweepCancellation: a cancelled context aborts the sweep with
// the context's error and no partial results.
func TestSolveSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sols, err := SolveSweep(ctx, []*Net{sweepModelNet(2, 2850)}, SolveOptions{})
	if err == nil || sols != nil {
		t.Fatalf("cancelled sweep returned (%v, %v), want error", sols, err)
	}
}
