package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/gtpn"
	"repro/internal/models"
)

// samePrediction reports whether two predictions are bit-identical.
func samePrediction(a, b Prediction) bool {
	return math.Float64bits(a.Throughput) == math.Float64bits(b.Throughput) &&
		math.Float64bits(a.RoundTripUS) == math.Float64bits(b.RoundTripUS) &&
		math.Float64bits(a.OfferedLoad) == math.Float64bits(b.OfferedLoad) &&
		a.States == b.States
}

// TestSharedSystemMatchesFreshSystems: a System's memoized C and its
// pooled point solvers give every prediction the same bits as a fresh
// System, which solves C anew and builds the one point it analyzes
// cold. A System's solves skip the solve cache, so each side really
// solves. Local points cover every shape a Server accepts at one and
// two conversations, and arch II at three, whose 1,658 states take the
// iterative stationary path and cross reweight's context poll; each is
// also held to SolveReference on BuildLocal's net, and the model its
// X was derived from signs as BuildLocal's does. Under the race
// detector each shape takes only X = 0 (a cold build) and 1e7 (a
// reuse), held to a fresh System alone, and the three-conversation
// shape is left out.
func TestSharedSystemMatchesFreshSystems(t *testing.T) {
	xs := []float64{0, 37.5, 1140, 2850.25, 123456.75, 1e7}
	if raceEnabled {
		xs = []float64{0, 1e7}
	}
	for arch := Uniprocessor; arch <= PartitionedBus; arch++ {
		for hosts := 1; hosts <= 4; hosts++ {
			for n := 1; n <= 2; n++ {
				checkLocalShape(t, arch, hosts, n, xs)
			}
		}
	}
	if !raceEnabled {
		checkLocalShape(t, MessageCoprocessor, 1, 3, []float64{1140, 0, 1e7})
	}

	for arch := Uniprocessor; arch <= PartitionedBus; arch++ {
		for hosts := 1; hosts <= 2; hosts++ {
			for _, nonLocal := range []bool{false, true} {
				shared := New(arch, WithHosts(hosts))
				for i := 0; i < 20; i++ {
					w := Workload{Conversations: 1, ServerComputeUS: 37.5 + 291.25*float64(i), NonLocal: nonLocal}
					got, err := shared.Analyze(w)
					if err != nil {
						t.Fatal(err)
					}
					want, err := New(arch, WithHosts(hosts)).Analyze(w)
					if err != nil {
						t.Fatal(err)
					}
					if !samePrediction(got, want) {
						t.Fatalf("arch %v hosts %d %+v: shared System %+v, fresh System %+v", arch, hosts, w, got, want)
					}
				}
			}
		}
	}
}

// checkLocalShape solves the local points (arch, hosts, n) at each X
// in order on one System, and holds each to a fresh System's bits and
// to SolveReference's.
func checkLocalShape(t *testing.T, arch Arch, hosts, n int, xs []float64) {
	t.Helper()
	shared := New(arch, WithHosts(hosts))
	prev := models.BuildLocal(arch, n, hosts, xs[0])
	for _, x := range xs {
		w := Workload{Conversations: n, ServerComputeUS: x}
		got, err := shared.Analyze(w)
		if err != nil {
			t.Fatal(err)
		}
		want, err := New(arch, WithHosts(hosts)).Analyze(w)
		if err != nil {
			t.Fatal(err)
		}
		if !samePrediction(got, want) {
			t.Fatalf("arch %v hosts %d %+v: shared System %+v, fresh System %+v", arch, hosts, w, got, want)
		}
		m := models.BuildLocal(arch, n, hosts, x)
		derived := prev.WithX(x)
		gotSig, _ := derived.Net.Signature()
		wantSig, _ := m.Net.Signature()
		if gotSig != wantSig {
			t.Fatalf("arch %v hosts %d n %d: WithX(%g) signs\n%s\nBuildLocal\n%s", arch, hosts, n, x, gotSig, wantSig)
		}
		prev = derived
		if raceEnabled {
			continue
		}
		ref, err := m.Net.SolveReference(gtpn.SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		done := "TCompute"
		if _, ok := m.Net.TransByName("TReply"); ok {
			done = "TReply"
		}
		lam := ref.Rate(done)
		refPred := Prediction{Throughput: lam * 1e6, RoundTripUS: float64(n) / lam,
			OfferedLoad: got.OfferedLoad, States: ref.States}
		if !samePrediction(got, refPred) {
			t.Fatalf("arch %v hosts %d %+v: shared System %+v, SolveReference %+v", arch, hosts, w, got, refPred)
		}
	}
}

// TestSharedSystemSolvesCOnce: once a System has answered one point, a
// fresh local point costs it one solve, the point's own: one graph,
// built or reused (the GC, or the race detector, may drop the pooled
// one). Its solves skip the solve cache, so the only counter there that
// moves is Bypassed, by one.
func TestSharedSystemSolvesCOnce(t *testing.T) {
	s := New(SmartBus, WithHosts(2))
	if _, err := s.Analyze(Workload{Conversations: 2, ServerComputeUS: 1234.5}); err != nil {
		t.Fatal(err)
	}
	cache0, graphs0 := SolveCache(), graphsSolvedOn()
	if _, err := s.Analyze(Workload{Conversations: 2, ServerComputeUS: 4321.25}); err != nil {
		t.Fatal(err)
	}
	cache1, graphs1 := SolveCache(), graphsSolvedOn()
	if graphs1-graphs0 != 1 {
		t.Fatalf("second fresh point solved on %d graphs, want 1", graphs1-graphs0)
	}
	cache0.Bypassed++
	if cache1 != cache0 {
		t.Fatalf("second fresh point: solve cache %+v, want %+v", cache1, cache0)
	}
}

// TestRoundTripCErrorNotMemoized: a C solve that fails (here on a done
// context) returns the error and leaves nothing memoized; the next
// analysis on a live context answers what a cold System does.
func TestRoundTripCErrorNotMemoized(t *testing.T) {
	w := Workload{Conversations: 1, ServerComputeUS: 2850}
	s := New(MessageCoprocessor)
	done, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.roundTripC(done, false); !errors.Is(err, context.Canceled) {
		t.Fatalf("C on a done context: err %v, want context.Canceled", err)
	}
	if c, ok := s.c.Load(false); ok {
		t.Fatalf("failed C solve memoized: %v", c)
	}
	got, err := s.AnalyzeContext(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	want, err := New(MessageCoprocessor).Analyze(w)
	if err != nil {
		t.Fatal(err)
	}
	if !samePrediction(got, want) {
		t.Fatalf("after a failed C solve: %+v, cold System %+v", got, want)
	}
}

// TestSystemConcurrentAnalyze: concurrent analyses on one System — the
// first of them racing to solve and memoize C in both localities —
// answer what a System of their own does. Run it under -race.
func TestSystemConcurrentAnalyze(t *testing.T) {
	ws := []Workload{
		{Conversations: 1, ServerComputeUS: 100},
		{Conversations: 2, ServerComputeUS: 900},
		{Conversations: 1, ServerComputeUS: 250, NonLocal: true},
		{Conversations: 1, ServerComputeUS: 1700, NonLocal: true},
	}
	want := make([]Prediction, len(ws))
	for i, w := range ws {
		p, err := New(PartitionedBus).Analyze(w)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = p
	}
	s := New(PartitionedBus)
	var wg sync.WaitGroup
	errs := make(chan error, 4*len(ws))
	for g := 0; g < 4; g++ {
		for i, w := range ws {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p, err := s.AnalyzeContext(context.Background(), w)
				if err == nil && !samePrediction(p, want[i]) {
					err = errors.New("prediction differs from a System of its own")
				}
				if err != nil {
					errs <- err
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// graphsSolvedOn counts the graphs the engine has solved on: built cold
// or reweighted.
func graphsSolvedOn() uint64 {
	e := SolverEngine()
	return e.GraphsBuilt + e.GraphsReused
}

// TestSystemConcurrentFreshPoints: eight goroutines solving fresh local
// points on one System share its pooled solvers, each solver owned by
// one solve at a time, and every answer has a fresh System's bits. Run
// it under -race.
func TestSystemConcurrentFreshPoints(t *testing.T) {
	const goroutines, perG = 8, 6
	ws := make([]Workload, goroutines*perG)
	want := make([]Prediction, len(ws))
	for i := range ws {
		ws[i] = Workload{Conversations: 1 + i%2, ServerComputeUS: 100 + 37.25*float64(i)}
		p, err := New(SmartBus, WithHosts(2)).Analyze(ws[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = p
	}
	s := New(SmartBus, WithHosts(2))
	var wg sync.WaitGroup
	errs := make(chan error, len(ws))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(ws); i += goroutines {
				p, err := s.AnalyzeContext(context.Background(), ws[i])
				if err == nil && !samePrediction(p, want[i]) {
					err = fmt.Errorf("%+v: %+v, a fresh System %+v", ws[i], p, want[i])
				}
				if err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// errAfter is a context whose Err turns context.Canceled after ok calls.
type errAfter struct {
	context.Context
	ok atomic.Int32
}

func (c *errAfter) Err() error {
	if c.ok.Add(-1) >= 0 {
		return nil
	}
	return context.Canceled
}

// TestCancelledPointDropsScratch: a solve whose context ends at the
// reweight's first poll (arch II at three conversations: 1,658 states,
// past the 1,024-state poll interval; its up-front check passes)
// returns the context's error and drops its solver, graph and all,
// rather than put back a graph it left partly rewritten. So the
// System's next point of that shape builds its graph cold, and has a
// fresh System's bits: those the System gave the same point when it
// was fresh itself.
func TestCancelledPointDropsScratch(t *testing.T) {
	s := New(MessageCoprocessor)
	w := Workload{Conversations: 3, ServerComputeUS: 1140}
	want, err := s.Analyze(w)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &errAfter{Context: context.Background()}
	ctx.ok.Store(1)
	if _, err := s.AnalyzeContext(ctx, Workload{Conversations: 3, ServerComputeUS: 2850}); !errors.Is(err, context.Canceled) {
		t.Fatalf("solve cancelled at the reweight's poll: err %v, want context.Canceled", err)
	}

	e0 := SolverEngine()
	got, err := s.Analyze(w)
	if err != nil {
		t.Fatal(err)
	}
	e1 := SolverEngine()
	if built, reused := e1.GraphsBuilt-e0.GraphsBuilt, e1.GraphsReused-e0.GraphsReused; built != 1 || reused != 0 {
		t.Fatalf("point after a cancelled solve: %d graphs built and %d reused, want 1 built", built, reused)
	}
	if !samePrediction(got, want) {
		t.Fatalf("point after a cancelled solve: %+v, fresh System %+v", got, want)
	}
}
