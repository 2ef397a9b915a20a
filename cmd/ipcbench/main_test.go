package main

import (
	"strings"
	"testing"
)

func snap(goVersion string, benches ...benchResult) snapshot {
	return snapshot{
		Schema: "ipcbench/1", GoVersion: goVersion, GOOS: "linux",
		GOARCH: "amd64", GOMAXPROCS: 1, CalibrationNsPerOp: 1.0,
		Benchmarks: benches,
	}
}

func bench(name string, ns, allocs float64) benchResult {
	return benchResult{Pkg: "repro", Name: name, NsPerOp: ns, AllocsPerOp: allocs}
}

func TestCompareSnapshots(t *testing.T) {
	base := snap("go1.24.0",
		bench("BenchmarkA", 1000, 40),
		bench("BenchmarkB", 2000, 100),
	)

	t.Run("within tolerance", func(t *testing.T) {
		cur := snap("go1.24.0",
			bench("BenchmarkA", 1200, 40), // +20% < 25%
			bench("BenchmarkB", 1500, 90), // improved
		)
		if regs := compareSnapshots(base, cur, 0.25, false); len(regs) != 0 {
			t.Fatalf("unexpected regressions: %v", regs)
		}
	})

	t.Run("missing from baseline", func(t *testing.T) {
		// A benchmark the baseline has no entry for must fail the gate —
		// otherwise a new hot path ships unguarded until someone remembers
		// to refresh the snapshot.
		cur := snap("go1.24.0",
			bench("BenchmarkA", 1000, 40),
			bench("BenchmarkB", 2000, 100),
			bench("BenchmarkNew", 1, 1),
		)
		regs := compareSnapshots(base, cur, 0.25, false)
		if len(regs) != 1 || !strings.Contains(regs[0].msg, "BenchmarkNew") || !strings.Contains(regs[0].msg, "missing from baseline") {
			t.Fatalf("want one missing-from-baseline regression, got %v", regs)
		}
		if regs[0].nsOnly {
			t.Error("a missing benchmark must not be retryable as wall-clock noise")
		}
	})

	t.Run("ns regression", func(t *testing.T) {
		cur := snap("go1.24.0",
			bench("BenchmarkA", 1300, 40), // +30% > 25%
			bench("BenchmarkB", 2000, 100),
		)
		regs := compareSnapshots(base, cur, 0.25, false)
		if len(regs) != 1 || !strings.Contains(regs[0].msg, "BenchmarkA") || !strings.Contains(regs[0].msg, "ns/op") {
			t.Fatalf("want one BenchmarkA ns/op regression, got %v", regs)
		}
		if !regs[0].nsOnly {
			t.Error("pure wall-clock regression must be marked retryable")
		}
	})

	t.Run("allocs regression", func(t *testing.T) {
		cur := snap("go1.24.0",
			bench("BenchmarkA", 1000, 60), // +50% allocs
			bench("BenchmarkB", 2000, 100),
		)
		regs := compareSnapshots(base, cur, 0.25, false)
		if len(regs) != 1 || !strings.Contains(regs[0].msg, "allocs/op") {
			t.Fatalf("want one allocs/op regression, got %v", regs)
		}
		if regs[0].nsOnly {
			t.Error("allocation regressions are deterministic, never retryable")
		}
	})

	t.Run("allocs from a zero floor", func(t *testing.T) {
		// No relative tolerance admits a first allocation on a path the
		// baseline pins at zero.
		zero := snap("go1.24.0", bench("BenchmarkA", 1000, 0))
		if regs := compareSnapshots(zero, snap("go1.24.0", bench("BenchmarkA", 1000, 0)), 0.25, true); len(regs) != 0 {
			t.Fatalf("zero stayed zero, got %v", regs)
		}
		regs := compareSnapshots(zero, snap("go1.24.0", bench("BenchmarkA", 1000, 1)), 0.25, true)
		if len(regs) != 1 || !strings.Contains(regs[0].msg, "allocs/op 0 -> 1") || regs[0].nsOnly {
			t.Fatalf("want one non-retryable allocs/op regression from 0, got %v", regs)
		}
	})

	t.Run("skipNs suppresses ns only", func(t *testing.T) {
		cur := snap("go1.25.0",
			bench("BenchmarkA", 9000, 60), // ns ignored, allocs still judged
			bench("BenchmarkB", 9000, 100),
		)
		regs := compareSnapshots(base, cur, 0.25, true)
		if len(regs) != 1 || !strings.Contains(regs[0].msg, "allocs/op") {
			t.Fatalf("want only the allocs/op regression under skipNs, got %v", regs)
		}
	})

	t.Run("missing benchmark", func(t *testing.T) {
		cur := snap("go1.24.0", bench("BenchmarkA", 1000, 40))
		regs := compareSnapshots(base, cur, 0.25, false)
		if len(regs) != 1 || !strings.Contains(regs[0].msg, "missing") {
			t.Fatalf("want one missing-benchmark regression, got %v", regs)
		}
	})
}

func TestAllNsOnly(t *testing.T) {
	if !allNsOnly(nil) {
		t.Error("empty set should be vacuously ns-only")
	}
	if !allNsOnly([]regression{{nsOnly: true}, {nsOnly: true}}) {
		t.Error("all-ns set misjudged")
	}
	if allNsOnly([]regression{{nsOnly: true}, {nsOnly: false}}) {
		t.Error("mixed set must not qualify for retry")
	}
}

func TestMergeMinNs(t *testing.T) {
	dst := []benchResult{
		bench("BenchmarkA", 1300, 40),
		bench("BenchmarkB", 2000, 100),
	}
	mergeMinNs(dst, []benchResult{
		bench("BenchmarkA", 900, 44), // faster: wall-clock taken, allocs kept
		bench("BenchmarkB", 2500, 90),
		bench("BenchmarkC", 1, 1), // unknown to dst: ignored
	})
	if dst[0].NsPerOp != 900 || dst[0].AllocsPerOp != 40 {
		t.Errorf("BenchmarkA: want ns=900 allocs=40, got ns=%v allocs=%v", dst[0].NsPerOp, dst[0].AllocsPerOp)
	}
	if dst[1].NsPerOp != 2000 {
		t.Errorf("BenchmarkB: slower re-measurement must not replace ns, got %v", dst[1].NsPerOp)
	}
}

func TestEnvComparable(t *testing.T) {
	a := snap("go1.24.0")
	if !envComparable(a, snap("go1.24.0")) {
		t.Error("identical environments judged incomparable")
	}
	b := snap("go1.25.0")
	if envComparable(a, b) {
		t.Error("different go versions judged comparable")
	}
	c := snap("go1.24.0")
	c.GOMAXPROCS = 8
	if envComparable(a, c) {
		t.Error("different GOMAXPROCS judged comparable")
	}

	// The static fingerprint cannot tell two same-spec hosts apart; the
	// measured calibration speed must also agree before ns/op is trusted.
	d := snap("go1.24.0")
	d.CalibrationNsPerOp = 1.20
	if !envComparable(a, d) {
		t.Error("calibrations within 25% judged incomparable")
	}
	d.CalibrationNsPerOp = 2.0
	if envComparable(a, d) {
		t.Error("2x calibration divergence judged comparable")
	}
	d.CalibrationNsPerOp = 0 // baseline predates the calibration field
	if envComparable(a, d) {
		t.Error("missing calibration must disable ns comparison")
	}
}
