package sim

import "testing"

// TestFIFOMatchesSliceQueue drives a FIFO and a plain slice queue through
// random pushes, pops and resets, across many compactions, and requires
// the same items in the same order after every operation.
func TestFIFOMatchesSliceQueue(t *testing.T) {
	r := NewRNG(5)
	var q FIFO[int]
	var ref []int
	compactions := 0
	for i := 0; i < 20000; i++ {
		switch k := r.Intn(20); {
		case k == 0:
			q.Reset()
			ref = ref[:0]
		case k < 11 || len(ref) == 0:
			q.Push(i)
			ref = append(ref, i)
		default:
			head := q.head
			if got := q.Pop(); got != ref[0] {
				t.Fatalf("op %d: Pop %d, want %d", i, got, ref[0])
			}
			ref = ref[1:]
			if q.head < head {
				compactions++
			}
		}
		if q.Len() != len(ref) || len(q.Pending()) != len(ref) {
			t.Fatalf("op %d: Len %d, Pending %d items, want %d", i, q.Len(), len(q.Pending()), len(ref))
		}
		for j, v := range q.Pending() {
			if v != ref[j] {
				t.Fatalf("op %d: Pending[%d] = %d, want %d", i, j, v, ref[j])
			}
		}
		if 2*q.head > len(q.items) {
			t.Fatalf("op %d: head %d past half of %d items", i, q.head, len(q.items))
		}
	}
	if compactions == 0 {
		t.Fatal("the queue never compacted")
	}
}
