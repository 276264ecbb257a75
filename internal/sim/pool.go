package sim

// Pool recycles the in-flight objects of one kind (requests, call runs,
// invocations, open traces) and is what lets a run snapshot and restore
// them. It keeps every object it has made plus a free list: an object is
// live from Get until Put, and the live set is the objects made and not
// free, so Get and Put are a pop and a push and an object carries no
// index of its own.
//
// Snapshot copies the live objects by pointer and value. Restore writes
// the values back and frees every other object the pool has made,
// including those made after the snapshot, so a restored run reuses them
// instead of making new ones, and one pool's snapshots restore at any
// time and in any order. Which free object Get hands out never affects a
// run: callers set every field they read.
type Pool[T any] struct {
	// New, when non-nil, initialises each object the pool makes, once
	// (binding method values, say).
	New  func(*T)
	made []*T
	free []*T
}

// Get returns a free object, or makes one when none is free.
func (p *Pool[T]) Get() *T {
	if n := len(p.free) - 1; n >= 0 {
		o := p.free[n]
		p.free = p.free[:n]
		return o
	}
	o := new(T)
	if p.New != nil {
		p.New(o)
	}
	p.made = append(p.made, o)
	return o
}

// Put returns a live object to the pool.
func (p *Pool[T]) Put(o *T) { p.free = append(p.free, o) }

// Live returns the number of objects handed out and not put back.
func (p *Pool[T]) Live() int { return len(p.made) - len(p.free) }

// PoolState is a pool's live objects at a snapshot, pointers and values
// in the order the pool made them.
type PoolState[T any] struct {
	ptrs []*T
	vals []T
}

// Values returns the saved values of the snapshot's live objects, in the
// pool's order. They are the snapshot's own: callers must not modify them.
func (s PoolState[T]) Values() []T { return s.vals }

// Snapshot captures the live objects.
func (p *Pool[T]) Snapshot() PoolState[T] {
	free := make(map[*T]bool, len(p.free))
	for _, o := range p.free {
		free[o] = true
	}
	s := PoolState[T]{ptrs: make([]*T, 0, p.Live()), vals: make([]T, 0, p.Live())}
	for _, o := range p.made {
		if !free[o] {
			s.ptrs = append(s.ptrs, o)
			s.vals = append(s.vals, *o)
		}
	}
	return s
}

// Restore rewinds the pool to a snapshot taken from it: the snapshot's
// live objects get their saved values back, and every other object is
// free. Objects are only ever appended to made, so one walk in made order
// meets the snapshot's objects in their saved order.
func (p *Pool[T]) Restore(s PoolState[T]) {
	p.free = p.free[:0]
	i := 0
	for _, o := range p.made {
		if i < len(s.ptrs) && s.ptrs[i] == o {
			*o = s.vals[i]
			i++
		} else {
			p.free = append(p.free, o)
		}
	}
	if i != len(s.ptrs) {
		panic("sim: Pool.Restore of a snapshot taken from another pool")
	}
}
