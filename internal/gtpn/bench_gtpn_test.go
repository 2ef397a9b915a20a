package gtpn_test

import (
	"context"
	"testing"

	"repro/internal/gtpn"
	"repro/internal/models"
	"repro/internal/timing"
)

// benchNet is the largest net the quick-mode registry solves: the
// Architecture II local-conversation model at n=2, X=2850. The Flat/
// Reference pairs below are the benchstat before/after for the solver
// data-layout rewrite; run with
//
//	go test ./internal/gtpn -run '^$' -bench 'Flat|Reference' -benchmem
func benchNet() *gtpn.Net {
	return models.BuildLocal(timing.ArchII, 2, 1, 2850).Net
}

func BenchmarkBuildGraphFlat(b *testing.B) {
	n := benchNet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := n.BenchBuildGraph()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(g.NumStates()), "states")
		}
	}
}

func BenchmarkBuildGraphReference(b *testing.B) {
	n := benchNet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := n.BenchRefBuildGraph()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(g.NumStates()), "states")
		}
	}
}

func BenchmarkSolveStationaryFlat(b *testing.B) {
	n := benchNet()
	g, err := n.BenchBuildGraph()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gtpn.BenchSolveStationary(g, gtpn.SolveOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveStationaryReference(b *testing.B) {
	n := benchNet()
	g, err := n.BenchRefBuildGraph()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gtpn.BenchRefSolveStationary(g, gtpn.SolveOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkResolveInstantFlat(b *testing.B) {
	r := benchNet().NewBenchResolver()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.ResolveFlat(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkResolveInstantReference(b *testing.B) {
	r := benchNet().NewBenchResolver()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.ResolveReference(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveEndToEndFlat(b *testing.B) {
	n := benchNet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gtpn.ResetSolveCache()
		if _, err := n.Solve(gtpn.SolveOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveEndToEndReference(b *testing.B) {
	n := benchNet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.SolveReference(gtpn.SolveOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// sweepGridNets is the benchmark sweep axis: the benchNet shape with the
// server-computation time running over Table 6.24's grid. Every net
// shares one shape, so a warm sweep reuses one reachability graph. Each
// net is signed here, before any timer: a net signs itself once, on
// first use, and that one-time cost is not a point's.
func sweepGridNets() []*gtpn.Net {
	xs := []float64{0, 570, 1140, 2850, 5700, 11400, 22800, 45600}
	nets := make([]*gtpn.Net, len(xs))
	for i, x := range xs {
		nets[i] = models.BuildLocal(timing.ArchII, 2, 1, x).Net
		nets[i].ShapeSignature()
	}
	return nets
}

// BenchmarkSolveSweepCold: one op is one grid point solved with no
// carried state — the chain resets before every point, so each op pays
// the full graph build. allocs/op is the per-point cold cost.
func BenchmarkSolveSweepCold(b *testing.B) {
	nets := sweepGridNets()
	sw := gtpn.NewSweepSolver(gtpn.SolveOptions{})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.Reset()
		if _, err := sw.SolveNext(ctx, nets[i%len(nets)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveSweepWarm: one op is one grid point of a continuing
// warm chain cycling through the grid — the graph is reused and each
// point warm-starts from its predecessor. allocs/op is the per-point
// warm cost; the gap to SolveSweepCold is what sweep-native solving
// saves per point.
func BenchmarkSolveSweepWarm(b *testing.B) {
	nets := sweepGridNets()
	sw := gtpn.NewSweepSolver(gtpn.SolveOptions{})
	ctx := context.Background()
	// Prime the chain so every measured op is warm.
	if _, err := sw.SolveNext(ctx, nets[0]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sw.SolveNext(ctx, nets[(i+1)%len(nets)]); err != nil {
			b.Fatal(err)
		}
	}
}
