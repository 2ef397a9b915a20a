// Package ringbuf is a fixed-capacity ring that keeps the newest values
// and hands them back oldest first — the one mechanism behind every
// bounded history in the serving tier: the metrics time series, the
// recent-request ring, the event journal and the trace timeline.
//
// A Ring is not synchronized: each owner guards it with the lock it
// already holds for its own state.
package ringbuf

// Ring retains the last Cap() values pushed.
type Ring[T any] struct {
	buf  []T
	next int // index of the next write
	full bool
}

// New creates a ring holding up to capacity values; capacity must be
// positive.
func New[T any](capacity int) *Ring[T] {
	return &Ring[T]{buf: make([]T, capacity)}
}

// Push appends v, overwriting the oldest value once the ring is full,
// and reports whether a value was evicted.
func (r *Ring[T]) Push(v T) (evicted bool) {
	evicted = r.full
	r.buf[r.next] = v
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	return evicted
}

// Slice returns a copy of the retained values, oldest first, or nil
// when the ring is empty.
func (r *Ring[T]) Slice() []T {
	if !r.full {
		return append([]T(nil), r.buf[:r.next]...)
	}
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// Len reports how many values the ring holds.
func (r *Ring[T]) Len() int {
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// Cap reports the ring's capacity.
func (r *Ring[T]) Cap() int { return len(r.buf) }
