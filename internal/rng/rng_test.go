package rng

import (
	"math"
	"testing"
)

func TestDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at %d", i)
		}
	}
	if New(1).Uint64() == New(2).Uint64() {
		t.Fatal("different seeds produced the same first value")
	}
}

// Uint64 is SplitMix64: seed 0 gives the generator's published reference
// sequence, and Mix is its finalizer applied to the advanced state.
func TestSplitMix64Reference(t *testing.T) {
	s := New(0)
	for i, want := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f} {
		if got := s.Uint64(); got != want {
			t.Fatalf("output %d = %#x, want %#x", i, got, want)
		}
	}
	if got := Mix(0x9E3779B97F4A7C15); got != 0xe220a8397b1dcdaf {
		t.Fatalf("Mix(gamma) = %#x, want the first output", got)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(7)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnAndUniformInt(t *testing.T) {
	s := New(9)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := s.Intn(5)
		if v < 0 || v >= 5 {
			t.Fatalf("Intn(5) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Fatalf("Intn(5) visited %d values", len(seen))
	}
	for i := 0; i < 1000; i++ {
		v := s.UniformInt(10, 20)
		if v < 10 || v > 20 {
			t.Fatalf("UniformInt(10,20) = %d", v)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Intn(0) should panic")
			}
		}()
		s.Intn(0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("UniformInt(5,4) should panic")
			}
		}()
		s.UniformInt(5, 4)
	}()
}

func TestExpMean(t *testing.T) {
	s := New(11)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := s.Exp(100)
		if v < 0 {
			t.Fatalf("Exp < 0: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-100) > 2 {
		t.Fatalf("Exp mean = %v, want ~100", mean)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(3)
	child := parent.Split()
	// The child's stream differs from the parent's continued stream.
	same := 0
	for i := 0; i < 50; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("parent and child streams coincide %d/50 times", same)
	}
}
