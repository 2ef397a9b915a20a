package ringbuf

import (
	"reflect"
	"testing"
)

func TestEmptyRingSliceIsNil(t *testing.T) {
	r := New[int](3)
	if s := r.Slice(); s != nil {
		t.Fatalf("empty Slice = %v, want nil", s)
	}
	if r.Len() != 0 || r.Cap() != 3 {
		t.Fatalf("Len %d Cap %d, want 0 and 3", r.Len(), r.Cap())
	}
}

func TestCapacityOne(t *testing.T) {
	r := New[string](1)
	if r.Push("a") {
		t.Fatal("first push into an empty ring evicted")
	}
	if !r.Push("b") {
		t.Fatal("second push into a full ring of one did not evict")
	}
	if got := r.Slice(); !reflect.DeepEqual(got, []string{"b"}) || r.Len() != 1 {
		t.Fatalf("Slice = %v Len = %d, want [b] and 1", got, r.Len())
	}
}

// Across a wrap the newest N values survive, oldest first, and every
// push beyond capacity reports exactly one eviction.
func TestWrapKeepsOldestFirstAndCountsEvictions(t *testing.T) {
	const n = 4
	r := New[int](n)
	evictions := 0
	for i := 0; i < 3*n+1; i++ {
		if r.Push(i) {
			evictions++
		}
		if want := min(i+1, n); r.Len() != want {
			t.Fatalf("after %d pushes Len = %d, want %d", i+1, r.Len(), want)
		}
	}
	if evictions != 2*n+1 {
		t.Fatalf("evictions = %d, want %d", evictions, 2*n+1)
	}
	if got, want := r.Slice(), []int{9, 10, 11, 12}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Slice = %v, want %v", got, want)
	}
	// Exactly at capacity: full, nothing evicted yet, insertion order.
	r = New[int](n)
	for i := 0; i < n; i++ {
		if r.Push(i) {
			t.Fatalf("push %d evicted before the ring was full", i)
		}
	}
	if got, want := r.Slice(), []int{0, 1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("full Slice = %v, want %v", got, want)
	}
}

// The returned slice is the caller's: writing to it leaves the ring
// unchanged, whether the ring has wrapped or not.
func TestSliceIsACopy(t *testing.T) {
	for _, pushes := range []int{1, 2, 3} {
		r := New[int](2)
		for i := 1; i <= pushes; i++ {
			r.Push(i)
		}
		want := r.Slice()
		want = append([]int(nil), want...)
		s := r.Slice()
		s[0] = 99
		if got := r.Slice(); !reflect.DeepEqual(got, want) {
			t.Fatalf("after %d pushes the ring changed through a returned slice: %v, want %v", pushes, got, want)
		}
	}
}
