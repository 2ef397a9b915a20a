package gtpn

import (
	"reflect"
	"sync"
	"testing"
)

// twoPhase builds a tiny keyed cycle net: P1 --T1(geometric mean m)--> P2
// --T2(delay d)--> P1.
func twoPhase(m float64, d int) *Net {
	b := NewBuilder()
	p1 := b.Place("P1", 1)
	p2 := b.Place("P2", 0)
	b.Transition("T1").From(p1).To(p2).Delay(1).FreqConst(1 / m)
	b.Transition("T1.loop").From(p1).To(p1).Delay(1).FreqConst(1 - 1/m)
	b.Transition("T2").From(p2).To(p1).Delay(d).Resource("busy")
	return b.MustBuild()
}

func TestSignatureStableAcrossBuilds(t *testing.T) {
	a, okA := twoPhase(5, 3).Signature()
	b, okB := twoPhase(5, 3).Signature()
	if !okA || !okB {
		t.Fatal("keyed nets should have signatures")
	}
	if a == "" || a != b {
		t.Fatalf("identical builds must sign identically:\n%q\n%q", a, b)
	}
}

// A net signs itself on first use, so concurrent solves of one net may
// be the first to ask: every caller must read the reference bytes.
// Run it under -race.
func TestSignatureConcurrentFirstUse(t *testing.T) {
	n := twoPhase(5, 3)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < cap(errs); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- checkSignature(n)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestSignatureDistinguishesNets(t *testing.T) {
	base, _ := twoPhase(5, 3).Signature()
	for name, n := range map[string]*Net{
		"different mean":  twoPhase(6, 3),
		"different delay": twoPhase(5, 4),
	} {
		sig, ok := n.Signature()
		if !ok {
			t.Fatalf("%s: lost signature", name)
		}
		if sig == base {
			t.Errorf("%s: signature collided with base net", name)
		}
	}
	// A different initial marking must change the signature too.
	b := NewBuilder()
	p1 := b.Place("P1", 2)
	p2 := b.Place("P2", 0)
	b.Transition("T1").From(p1).To(p2).Delay(1).FreqConst(1.0 / 5)
	b.Transition("T1.loop").From(p1).To(p1).Delay(1).FreqConst(1 - 1.0/5)
	b.Transition("T2").From(p2).To(p1).Delay(3).Resource("busy")
	sig, _ := b.MustBuild().Signature()
	if sig == base {
		t.Error("initial marking not reflected in signature")
	}
}

func TestOpaqueFreqDisablesSignature(t *testing.T) {
	b := NewBuilder()
	p := b.Place("P", 1)
	b.Transition("T").From(p).To(p).Delay(1).Freq(Const(0.5))
	if _, ok := b.MustBuild().Signature(); ok {
		t.Fatal("opaque Freq must leave the net unsigned")
	}
}

func TestParsedNetsAreSigned(t *testing.T) {
	const src = `
place P1 = 1
place P2
trans T1 : P1 -> P2 delay 1 freq 1/5
trans T1l : P1 -> P1 delay 1 freq 1-1/5
trans T2 : P2 -> P1 delay 3 when P1 = 0 resource busy
`
	n1, err := ParseNetString(src)
	if err != nil {
		t.Fatal(err)
	}
	n2, _ := ParseNetString(src)
	s1, ok1 := n1.Signature()
	s2, ok2 := n2.Signature()
	if !ok1 || !ok2 || s1 != s2 {
		t.Fatalf("parsed nets should sign identically (ok %v %v)", ok1, ok2)
	}
}

func TestSolveCacheHitsAndValues(t *testing.T) {
	ResetSolveCache()
	defer ResetSolveCache()

	cold, err := twoPhase(7, 4).Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s := SolveCacheStats(); s.Misses != 1 || s.Hits != 0 || s.Entries != 1 {
		t.Fatalf("after cold solve: %+v", s)
	}

	warm, err := twoPhase(7, 4).Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s := SolveCacheStats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("after warm solve: %+v", s)
	}
	if !reflect.DeepEqual(cold.FiringRate, warm.FiringRate) ||
		!reflect.DeepEqual(cold.MeanTokens, warm.MeanTokens) ||
		cold.Usage("busy") != warm.Usage("busy") {
		t.Fatal("cached solution differs from cold solve")
	}
	// Name lookups must resolve against the caller's net instance.
	if warm.Rate("T2") != cold.Rate("T2") || warm.Tokens("P2") != cold.Tokens("P2") {
		t.Fatal("cached solution mis-resolved names")
	}

	// A different sweep point must miss.
	if _, err := twoPhase(9, 4).Solve(SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	if s := SolveCacheStats(); s.Misses != 2 || s.Entries != 2 {
		t.Fatalf("after second point: %+v", s)
	}

	// Different solver options must not alias.
	if _, err := twoPhase(7, 4).Solve(SolveOptions{Tolerance: 1e-9}); err != nil {
		t.Fatal(err)
	}
	if s := SolveCacheStats(); s.Misses != 3 {
		t.Fatalf("solver options aliased: %+v", s)
	}
}

// An Uncached solve neither reads nor writes the cache, even for a net
// whose solution is already there, and counts as bypassed.
func TestSolveCacheDisabled(t *testing.T) {
	ResetSolveCache()
	defer ResetSolveCache()
	for i := 0; i < 2; i++ {
		if _, err := twoPhase(7, 4).Solve(SolveOptions{Uncached: true}); err != nil {
			t.Fatal(err)
		}
	}
	if s := SolveCacheStats(); s.Bypassed != 2 || s.Hits != 0 || s.Misses != 0 || s.Entries != 0 {
		t.Fatalf("uncached solves used the cache: %+v", s)
	}
	if _, err := twoPhase(7, 4).Solve(SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := twoPhase(7, 4).Solve(SolveOptions{Uncached: true}); err != nil {
		t.Fatal(err)
	}
	if s := SolveCacheStats(); s.Bypassed != 3 || s.Hits != 0 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("an uncached solve of a cached net: %+v", s)
	}
}

// A stored entry keeps no net, and a hit resolves Tokens and Rate
// against the caller's net.
func TestSolveCacheStoresNoNet(t *testing.T) {
	ResetSolveCache()
	defer ResetSolveCache()
	cold, err := twoPhase(7, 4).Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	solveCache.mu.Lock()
	for key, e := range solveCache.m {
		if e.net != nil {
			t.Errorf("entry %q keeps its net", key)
		}
	}
	solveCache.mu.Unlock()
	caller := twoPhase(7, 4)
	warm, err := caller.Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s := SolveCacheStats(); s.Hits != 1 || s.Entries != 1 {
		t.Fatalf("second solve: %+v, want one hit on one entry", s)
	}
	if warm.net != caller {
		t.Fatal("a hit does not point at the caller's net")
	}
	if warm.Tokens("P2") != cold.Tokens("P2") || warm.Rate("T2") != cold.Rate("T2") {
		t.Fatal("a hit mis-resolved names")
	}
}

func TestUnsignedNetBypassesCache(t *testing.T) {
	ResetSolveCache()
	defer ResetSolveCache()
	b := NewBuilder()
	p := b.Place("P", 1)
	b.Transition("T").From(p).To(p).Delay(2).Freq(Const(1))
	if _, err := b.MustBuild().Solve(SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	if s := SolveCacheStats(); s.Bypassed != 1 || s.Entries != 0 {
		t.Fatalf("unsigned net was cached: %+v", s)
	}
}

// The replicated simulator must produce bit-identical estimates at any
// worker count: seeds derive from the base seed by replication index and
// aggregation runs in replication order.
func TestSimulateManyWorkerInvariance(t *testing.T) {
	n := twoPhase(5, 3)
	var baseline *SimResult
	for _, workers := range []int{1, 2, 8} {
		res, err := n.SimulateMany(SimOptions{Seed: 99, Ticks: 50_000, Replications: 6, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if baseline == nil {
			baseline = res
			continue
		}
		if !reflect.DeepEqual(baseline.FiringRate, res.FiringRate) ||
			!reflect.DeepEqual(baseline.MeanTokens, res.MeanTokens) ||
			!reflect.DeepEqual(baseline.MeanFiring, res.MeanFiring) ||
			!reflect.DeepEqual(baseline.ResourceUsage, res.ResourceUsage) {
			t.Fatalf("workers=%d changed the replicated estimates", workers)
		}
	}
}

// One replication must degenerate to a plain Simulate run.
func TestSimulateManySingleIsSimulate(t *testing.T) {
	n := twoPhase(5, 3)
	one, err := n.SimulateMany(SimOptions{Seed: 7, Ticks: 20_000, Replications: 1})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := n.Simulate(SimOptions{Seed: 7, Ticks: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one.FiringRate, plain.FiringRate) {
		t.Fatal("Replications=1 diverged from Simulate")
	}
}

// The averaged estimate should agree with the exact solution at least as
// well as a typical single run does.
func TestSimulateManyTracksSolution(t *testing.T) {
	n := twoPhase(5, 3)
	sol, err := n.Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := n.SimulateMany(SimOptions{Seed: 4, Ticks: 200_000, Replications: 4})
	if err != nil {
		t.Fatal(err)
	}
	exact, got := sol.Usage("busy"), res.Usage("busy")
	if rel := (got - exact) / exact; rel > 0.05 || rel < -0.05 {
		t.Fatalf("replicated usage %.6f deviates %.2f%% from exact %.6f", got, rel*100, exact)
	}
}
