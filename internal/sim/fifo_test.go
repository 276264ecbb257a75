package sim

import (
	"slices"
	"testing"
)

// TestFIFOMatchesSliceQueue drives a FIFO and a plain slice queue through
// random pushes, pops, resets and fresh starts (a zero FIFO, so the ring
// grows from nothing again), and requires the same items in the same
// order after every operation: Len, Head, Tail and AppendTo (onto a
// non-empty prefix, which it must keep) against the slice. The walk must
// wrap the ring and grow it while wrapped, where a copy that ignored the
// head would scramble the order.
func TestFIFOMatchesSliceQueue(t *testing.T) {
	r := NewRNG(5)
	var q FIFO[int]
	var ref []int
	wrapped, wrappedGrowths, resets := 0, 0, 0
	for i := 0; i < 20000; i++ {
		switch k := r.Intn(200); {
		case k == 0:
			q.Reset()
			ref = ref[:0]
			resets++
		case k == 1:
			q = FIFO[int]{}
			ref = ref[:0]
		case k < 108 || len(ref) == 0:
			if q.n == len(q.buf) && q.head != 0 {
				wrappedGrowths++
			}
			q.Push(i)
			ref = append(ref, i)
		default:
			if got := q.Pop(); got != ref[0] {
				t.Fatalf("op %d: Pop %d, want %d", i, got, ref[0])
			}
			ref = ref[1:]
		}
		if q.head+q.n > len(q.buf) {
			wrapped++
		}
		if q.Len() != len(ref) {
			t.Fatalf("op %d: Len %d, want %d", i, q.Len(), len(ref))
		}
		if got := q.AppendTo([]int{-1}); !slices.Equal(got, append([]int{-1}, ref...)) {
			t.Fatalf("op %d: AppendTo gives %v, want -1 then %v", i, got, ref)
		}
		if len(ref) > 0 && (q.Head() != ref[0] || q.Tail() != ref[len(ref)-1]) {
			t.Fatalf("op %d: Head %d Tail %d, want %d and %d", i, q.Head(), q.Tail(), ref[0], ref[len(ref)-1])
		}
		if len(q.buf)&(len(q.buf)-1) != 0 {
			t.Fatalf("op %d: ring of %d slots is not a power of two", i, len(q.buf))
		}
	}
	if wrapped == 0 || wrappedGrowths == 0 || resets == 0 {
		t.Fatalf("the walk missed a case: %d wrapped states, %d growths while wrapped, %d resets",
			wrapped, wrappedGrowths, resets)
	}
	t.Logf("%d wrapped states, %d growths while wrapped, %d resets", wrapped, wrappedGrowths, resets)
}

// TestFIFOResetReleasesAndKeepsStorage checks that Reset drops every
// reference the ring holds and keeps its slots, and that Grow makes
// room once for a burst that then pushes without reallocating.
func TestFIFOResetReleasesAndKeepsStorage(t *testing.T) {
	var q FIFO[*int]
	q.Grow(20)
	slots := len(q.buf)
	if slots < 20 {
		t.Fatalf("Grow(20) left %d slots", slots)
	}
	for i := 0; i < 20; i++ {
		q.Push(new(int))
	}
	if len(q.buf) != slots {
		t.Fatalf("pushing what Grow made room for regrew the ring to %d slots", len(q.buf))
	}
	q.Pop()
	q.Reset()
	if q.Len() != 0 || len(q.buf) != slots {
		t.Fatalf("Reset left Len %d over %d slots, want 0 over %d", q.Len(), len(q.buf), slots)
	}
	for i, p := range q.buf {
		if p != nil {
			t.Fatalf("slot %d still references an item after Reset", i)
		}
	}
}
