package sim

import "slices"

// FIFO is a first-in, first-out queue over one slice and a head index:
// Push appends at the tail and Pop advances the head, and the consumed
// prefix is compacted away once it passes half the slice, so both are
// amortised O(1) and a queue in steady state never reallocates. The
// engine's hop lane and a cluster server's wait queue are FIFOs.
type FIFO[T any] struct {
	items []T
	head  int
}

// Len returns the number of queued items.
func (q *FIFO[T]) Len() int { return len(q.items) - q.head }

// Pending returns the queued items, head first. The slice aliases the
// queue's storage: it is valid until the next Push, Pop or Reset.
func (q *FIFO[T]) Pending() []T { return q.items[q.head:] }

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) { q.items = append(q.items, v) }

// Pop removes and returns the head. The queue must not be empty.
func (q *FIFO[T]) Pop() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero // release references so the GC can reclaim them
	q.head++
	if q.head > len(q.items)/2 {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items = q.items[:n]
		q.head = 0
	}
	return v
}

// Reset empties the queue and keeps its storage.
func (q *FIFO[T]) Reset() {
	clear(q.items)
	q.items, q.head = q.items[:0], 0
}

// Grow makes room for at least n more items without reallocating.
func (q *FIFO[T]) Grow(n int) { q.items = slices.Grow(q.items, n) }
