package sim

import (
	"math/rand"
	"testing"
)

type poolItem struct{ v int }

// poolRef is the map reference a Pool is checked against: every object
// the pool has handed out, and the value of each live one.
type poolRef struct {
	made []*poolItem
	live map[*poolItem]int
}

// poolSnap pairs a pool snapshot with the reference's live values at it.
type poolSnap struct {
	st   PoolState[poolItem]
	live map[*poolItem]int
}

func copyLive(m map[*poolItem]int) map[*poolItem]int {
	out := make(map[*poolItem]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// TestPoolMatchesMapReference runs random Get/Put/Snapshot/Restore
// sequences, with restores of any snapshot in random order, and checks
// after every step that live values round-trip, that every object made
// is exactly once either live or free, and that Get reuses a free object
// before it makes a new one.
func TestPoolMatchesMapReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		made := 0
		p := Pool[poolItem]{New: func(*poolItem) { made++ }}
		ref := poolRef{live: map[*poolItem]int{}}
		var snaps []poolSnap
		restores := 0
		for step := 0; step < 2000; step++ {
			switch op := rng.Intn(100); {
			case op < 45: // Get
				freeBefore := len(ref.made) - len(ref.live)
				o := p.Get()
				if _, live := ref.live[o]; live {
					t.Fatalf("seed %d step %d: Get handed out a live object", seed, step)
				}
				known := false
				for _, m := range ref.made {
					known = known || m == o
				}
				if known != (freeBefore > 0) {
					t.Fatalf("seed %d step %d: Get reused=%v with %d free objects", seed, step, known, freeBefore)
				}
				if !known {
					ref.made = append(ref.made, o)
				}
				o.v = rng.Int()
				ref.live[o] = o.v
			case op < 75: // Put
				if len(ref.live) == 0 {
					continue
				}
				o := anyLive(rng, ref)
				delete(ref.live, o)
				p.Put(o)
			case op < 85: // change a live value
				if len(ref.live) == 0 {
					continue
				}
				o := anyLive(rng, ref)
				o.v = rng.Int()
				ref.live[o] = o.v
			case op < 93:
				snaps = append(snaps, poolSnap{p.Snapshot(), copyLive(ref.live)})
			default:
				if len(snaps) == 0 {
					continue
				}
				s := snaps[rng.Intn(len(snaps))]
				p.Restore(s.st)
				ref.live = copyLive(s.live)
				restores++
			}
			checkPool(t, seed, step, &p, ref)
		}
		if made != len(ref.made) {
			t.Fatalf("seed %d: New ran %d times for %d objects", seed, made, len(ref.made))
		}
		if restores == 0 || len(ref.made) < 20 {
			t.Fatalf("seed %d: weak sequence (%d restores, %d objects)", seed, restores, len(ref.made))
		}
	}
}

func anyLive(rng *rand.Rand, ref poolRef) *poolItem {
	var live []*poolItem
	for _, o := range ref.made { // made order, so the pick is seeded
		if _, ok := ref.live[o]; ok {
			live = append(live, o)
		}
	}
	return live[rng.Intn(len(live))]
}

func checkPool(t *testing.T, seed int64, step int, p *Pool[poolItem], ref poolRef) {
	t.Helper()
	if p.Live() != len(ref.live) {
		t.Fatalf("seed %d step %d: Live() = %d, reference has %d", seed, step, p.Live(), len(ref.live))
	}
	if len(p.made) != len(ref.made) {
		t.Fatalf("seed %d step %d: pool holds %d objects, %d were made", seed, step, len(p.made), len(ref.made))
	}
	inFree := map[*poolItem]int{}
	for _, o := range p.free {
		inFree[o]++
	}
	for _, o := range ref.made {
		v, live := ref.live[o]
		switch {
		case live && inFree[o] != 0:
			t.Fatalf("seed %d step %d: a live object is on the free list", seed, step)
		case !live && inFree[o] != 1:
			t.Fatalf("seed %d step %d: a free object is on the free list %d times", seed, step, inFree[o])
		case live && o.v != v:
			t.Fatalf("seed %d step %d: live value %d, want %d", seed, step, o.v, v)
		}
		delete(inFree, o)
	}
	if len(inFree) != 0 {
		t.Fatalf("seed %d step %d: %d objects on the free list were never made", seed, step, len(inFree))
	}
}

// TestPoolRestoreRejectsForeignSnapshot: a snapshot restores only into
// the pool it was taken from.
func TestPoolRestoreRejectsForeignSnapshot(t *testing.T) {
	var a, b Pool[poolItem]
	a.Get()
	s := a.Snapshot()
	defer func() {
		if recover() == nil {
			t.Fatal("restoring another pool's snapshot did not panic")
		}
	}()
	b.Restore(s)
}
