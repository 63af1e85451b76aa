package trace

import "sync"

// Ring is a fixed-capacity, concurrency-safe ring of items paged by cursor,
// the backing store of every SSE feed: writers overwrite the oldest entries,
// and readers page through with Since. Cursors are sequence numbers that
// survive wrap-around, so a slow reader loses the overwritten prefix instead
// of stalling the writer, and never sees an item twice. All methods are
// nil-safe.
type Ring[T any] struct {
	mu    sync.Mutex
	buf   []T
	total uint64 // items ever recorded; buf holds the trailing len(buf)
}

// NewRing creates a ring holding the last n items (n ≤ 0 means 1024).
func NewRing[T any](n int) *Ring[T] {
	if n <= 0 {
		n = 1024
	}
	return &Ring[T]{buf: make([]T, 0, n)}
}

// Record appends an item, overwriting the oldest once full.
func (r *Ring[T]) Record(v T) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
	} else {
		r.buf[int(r.total%uint64(cap(r.buf)))] = v
	}
	r.total++
	r.mu.Unlock()
}

// Total returns how many items have ever been recorded (0 for nil).
func (r *Ring[T]) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Since returns every buffered item with sequence number ≥ cursor, in record
// order, plus the next cursor (pass it back in to page). A cursor before the
// retained window resumes at its start; the returned slice is a copy.
func (r *Ring[T]) Since(cursor uint64) ([]T, uint64) {
	if r == nil {
		return nil, cursor
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cursor = max(cursor, r.total-uint64(len(r.buf)))
	if cursor >= r.total {
		return nil, r.total
	}
	out := make([]T, 0, r.total-cursor)
	for seq := cursor; seq < r.total; seq++ {
		out = append(out, r.buf[int(seq%uint64(cap(r.buf)))])
	}
	return out, r.total
}

// Stream is Since with the items boxed, the shape of a telemetry server's
// SSE source.
func (r *Ring[T]) Stream(cursor uint64) ([]any, uint64) {
	items, next := r.Since(cursor)
	out := make([]any, len(items))
	for i, v := range items {
		out[i] = v
	}
	return out, next
}
