package telemetry

import (
	"reflect"
	"testing"
	"time"
)

// TestRowsStayDisjointAfterRestore: ring rows, snapshot rows and exported
// rows are windows of shared slabs. After Restores over rows dirtied past
// the snapshot, the ring reads back exactly what it held, and every row
// still owns its windows: each holds its own values, writing one never
// shows in another, and an append reallocates instead of spilling into
// the next row.
func TestRowsStayDisjointAfterRestore(t *testing.T) {
	probe := &fakeProbe{mcf: map[string]float64{}, ready: true}
	h := newHarness(t, Options{Capacity: 4, WindowTicks: 1}, probe)
	tick := func(k int) {
		for i := 0; i < k; i++ {
			h.tel.ObserveResponse("A", time.Duration(k)*time.Millisecond)
			h.tel.ObserveResponse("B", time.Duration(2*k)*time.Millisecond)
			h.tel.ObserveExec(k%2, time.Duration(k)*time.Millisecond)
		}
		probe.mcf["route"], probe.mcf["ticketinfo"] = float64(k), float64(k)+0.5
		h.tick()
	}
	for k := 1; k <= 3; k++ {
		tick(k)
	}
	snap := h.tel.Snapshot()
	want := h.tel.Samples()
	for round := 0; round < 2; round++ {
		for k := 4; k <= 9; k++ { // wraps the 4-row ring: every row dirty
			tick(k + 10*round)
		}
		h.tel.Restore(snap)
		if got := h.tel.Samples(); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: restored rows\n%+v\nwant\n%+v", round, got, want)
		}
	}

	rows := h.tel.samples
	for i := range rows {
		r := &rows[i]
		if cap(r.Regions) != len(r.Regions) || cap(r.Services) != len(r.Services) || cap(r.MCF) != len(r.MCF) {
			t.Fatalf("row %d windows reach past their length: %d/%d %d/%d %d/%d", i,
				len(r.Regions), cap(r.Regions), len(r.Services), cap(r.Services), len(r.MCF), cap(r.MCF))
		}
		for j := range r.Regions {
			r.Regions[j].Count = uint64(100*i + j)
		}
		for j := range r.Services {
			r.Services[j].Count = uint64(1000*i + j)
			r.MCF[j] = float64(i) + 0.25*float64(j)
		}
	}
	for i := range rows {
		r := &rows[i]
		for j := range r.Regions {
			if r.Regions[j].Count != uint64(100*i+j) {
				t.Fatalf("row %d region %d overwritten by a neighbour", i, j)
			}
		}
		for j := range r.Services {
			if r.Services[j].Count != uint64(1000*i+j) || r.MCF[j] != float64(i)+0.25*float64(j) {
				t.Fatalf("row %d service %d overwritten by a neighbour", i, j)
			}
		}
	}
	next := rows[1].Regions[0]
	_ = append(rows[0].Regions, SeriesStats{Count: 999})
	if rows[1].Regions[0] != next {
		t.Fatal("an append to one row's window wrote into the next row")
	}
}
