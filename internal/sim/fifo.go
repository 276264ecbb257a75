package sim

// FIFO is a first-in, first-out queue over a power-of-two ring: head
// indexes the first item and n counts the items, so Push and Pop are
// O(1) with no compaction, and a queue in steady state never
// reallocates. A full ring doubles, unwrapping its items to the front of
// the new one. The engine's hop lane and a cluster server's wait queue
// are FIFOs.
type FIFO[T any] struct {
	buf  []T // len is 0 or a power of two
	head int
	n    int
}

// Len returns the number of queued items.
func (q *FIFO[T]) Len() int { return q.n }

// Head returns the first item. The queue must not be empty.
func (q *FIFO[T]) Head() T { return q.buf[q.head] }

// Tail returns the last item. The queue must not be empty.
func (q *FIFO[T]) Tail() T { return q.buf[(q.head+q.n-1)&(len(q.buf)-1)] }

// AppendTo appends the queued items to dst, head first, and returns the
// extended slice.
func (q *FIFO[T]) AppendTo(dst []T) []T {
	end := q.head + q.n
	if end <= len(q.buf) {
		return append(dst, q.buf[q.head:end]...)
	}
	return append(append(dst, q.buf[q.head:]...), q.buf[:end-len(q.buf)]...)
}

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow(q.n + 1)
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Pop removes and returns the head. The queue must not be empty.
func (q *FIFO[T]) Pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // release references so the GC can reclaim them
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// Reset empties the queue and keeps its storage.
func (q *FIFO[T]) Reset() {
	clear(q.buf)
	q.head, q.n = 0, 0
}

// Grow makes room for at least n more items without reallocating.
func (q *FIFO[T]) Grow(n int) {
	if q.n+n > len(q.buf) {
		q.grow(q.n + n)
	}
}

// grow moves the items, head first, into a fresh ring of at least size
// slots.
func (q *FIFO[T]) grow(size int) {
	c := max(len(q.buf), 8)
	for c < size {
		c *= 2
	}
	buf := make([]T, c)
	q.AppendTo(buf[:0])
	q.buf, q.head = buf, 0
}
