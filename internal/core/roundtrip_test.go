package core

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
)

// samePrediction reports whether two predictions are bit-identical.
func samePrediction(a, b Prediction) bool {
	return math.Float64bits(a.Throughput) == math.Float64bits(b.Throughput) &&
		math.Float64bits(a.RoundTripUS) == math.Float64bits(b.RoundTripUS) &&
		math.Float64bits(a.OfferedLoad) == math.Float64bits(b.OfferedLoad) &&
		a.States == b.States
}

// TestSharedSystemMatchesFreshSystems: a System's memoized C gives every
// prediction the same bits as a fresh System, which solves C anew for
// the one point it analyzes. A System's solves skip the solve cache, so
// each side really solves.
func TestSharedSystemMatchesFreshSystems(t *testing.T) {
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

// TestSharedSystemSolvesCOnce: once a System has answered one point, a
// fresh local point costs it one solve, the point's own: one graph
// built. Its solves skip the solve cache, so the only counter there that
// moves is Bypassed, by one.
func TestSharedSystemSolvesCOnce(t *testing.T) {
	s := New(SmartBus, WithHosts(2))
	if _, err := s.Analyze(Workload{Conversations: 2, ServerComputeUS: 1234.5}); err != nil {
		t.Fatal(err)
	}
	cache0, graphs0 := SolveCache(), SolverEngine().GraphsBuilt
	if _, err := s.Analyze(Workload{Conversations: 2, ServerComputeUS: 4321.25}); err != nil {
		t.Fatal(err)
	}
	cache1, graphs1 := SolveCache(), SolverEngine().GraphsBuilt
	if graphs1-graphs0 != 1 {
		t.Fatalf("second fresh point built %d graphs, want 1", graphs1-graphs0)
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
