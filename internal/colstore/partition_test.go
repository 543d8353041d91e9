package colstore

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
)

// Row layouts the partition fuzz target can ask for.
const (
	layoutRandom       = iota // keys in random order
	layoutAllMisplaced        // keys descending: every row of the smaller band is misplaced
	layoutOneMisplaced        // keys ascending, then one pair swapped across the split
	layoutTies                // few distinct keys, pivot equal to one of them
	numLayouts
)

// partitionFixture builds a table of total random rows whose range
// [lo, hi) is shaped by layout in dimension 0, plus a pivot drawn from that
// range, deterministically from seed.
func partitionFixture(total, lo, hi int, layout uint8, seed int64) (*Table, float64) {
	objs := randomObjects(total, seed)
	rng := rand.New(rand.NewSource(seed))
	r := objs[lo:hi]
	if layout == layoutTies {
		for i := range r {
			r[i].Min[0] = float64(rng.Intn(4)) * 100
			r[i].Max[0] = r[i].Min[0] + rng.Float64()*10
		}
	}
	byKey := func(a, b geom.Object) int { return cmp.Compare(a.Min[0], b.Min[0]) }
	switch layout {
	case layoutAllMisplaced:
		slices.SortFunc(r, func(a, b geom.Object) int { return byKey(b, a) })
	case layoutOneMisplaced:
		slices.SortFunc(r, byKey)
	}
	if len(r) == 0 {
		return FromObjects(objs), 500
	}
	k := rng.Intn(len(r))
	pivot := r[k].Min[0]
	if layout == layoutOneMisplaced && k > 0 && r[k-1].Min[0] < pivot {
		// r[:k] sits below the pivot and r[k:] above it; one swap across
		// the split leaves exactly one misplaced row on each side.
		i, j := rng.Intn(k), k+rng.Intn(len(r)-k)
		r[i], r[j] = r[j], r[i]
	}
	return FromObjects(objs), pivot
}

// FuzzPartitionLower checks the blocked branch-free kernel against the
// scalar two-pointer kernel on random ranges, pivots and sizes: the split,
// both bands' bounds, band membership, untouched rows outside the range,
// and that the lanes were permuted together (the ID lane is a permutation
// and every row's box still belongs to its ID).
func FuzzPartitionLower(f *testing.F) {
	sizes := []uint16{
		0, 1, 2, 3,
		scalarCutoff - 1, scalarCutoff, scalarCutoff + 1,
		partitionBlock - 1, partitionBlock, partitionBlock + 1,
		2*partitionBlock - 1, 2 * partitionBlock, 2*partitionBlock + 1,
		4*partitionBlock + 3, 3000,
	}
	for i, n := range sizes {
		for layout := uint8(0); layout < numLayouts; layout++ {
			f.Add(n, uint16(0), uint16(0), layout, uint8(i%3), int64(i))
		}
	}
	f.Add(uint16(2000), uint16(300), uint16(400), uint8(layoutRandom), uint8(2), int64(99))
	f.Fuzz(func(t *testing.T, n, loPad, hiPad uint16, layout, dim uint8, seed int64) {
		size := int(n) % 5000
		lo := int(loPad) % 700
		hi := lo + size
		total := hi + int(hiPad)%700
		layout %= numLayouts
		d := int(dim) % geom.Dims

		// The fixture shapes dimension 0; swapping lanes 0 and d moves that
		// shape into the key lane.
		base, pivot := partitionFixture(total, lo, hi, layout, seed)
		if d != 0 {
			base.Min[0], base.Min[d] = base.Min[d], base.Min[0]
			base.Max[0], base.Max[d] = base.Max[d], base.Max[0]
		}
		before := base.Clone()
		got, want := base.Clone(), base.Clone()
		gMid, gLeft, gRight := got.partitionLowerBlocked(lo, hi, d, pivot)
		wMid, wLeft, wRight := want.partitionLowerScalar(lo, hi, d, pivot)
		if gMid != wMid {
			t.Fatalf("mid = %d, scalar kernel says %d (range [%d,%d), pivot %g)", gMid, wMid, lo, hi, pivot)
		}
		if gLeft != wLeft || gRight != wRight {
			t.Fatalf("bounds (%v, %v), scalar kernel says (%v, %v)", gLeft, gRight, wLeft, wRight)
		}

		byID := make(map[int32]geom.Box, total)
		for i := 0; i < total; i++ {
			byID[before.ID[i]] = before.BoxOf(i)
		}
		key := got.Min[d]
		for i := 0; i < total; i++ {
			switch {
			case i < lo || i >= hi:
				if got.ObjectAt(i) != before.ObjectAt(i) {
					t.Fatalf("row %d outside [%d,%d) moved", i, lo, hi)
				}
			case i < gMid && key[i] >= pivot:
				t.Fatalf("row %d key %g >= pivot %g in the left band", i, key[i], pivot)
			case i >= gMid && key[i] < pivot:
				t.Fatalf("row %d key %g < pivot %g in the right band", i, key[i], pivot)
			}
			box, ok := byID[got.ID[i]]
			if !ok || box != got.BoxOf(i) {
				t.Fatalf("row %d: lanes desynced from ID %d", i, got.ID[i])
			}
		}
		ids := slices.Clone(got.ID)
		orig := slices.Clone(before.ID)
		slices.Sort(ids)
		slices.Sort(orig)
		if !slices.Equal(ids, orig) {
			t.Fatal("ID lane is not a permutation of the input")
		}
	})
}

// TestPartitionRetainsNoScratch: the partition kernel allocates nothing,
// so a table costs its lanes and no scratch in proportion to its rows.
// Every run partitions a fresh table, so AllocsPerRun's warm-up run cannot
// hide a one-time per-table allocation.
func TestPartitionRetainsNoScratch(t *testing.T) {
	const n, runs = 100_000, 4
	objs := dataset.Uniform(n, 42)
	tabs := make([]*Table, runs+1) // AllocsPerRun calls f once more than runs
	for i := range tabs {
		tabs[i] = FromObjects(objs)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		tab := tabs[next]
		next++
		if mid, _, _ := tab.Partition(0, n, 0, 5000, KeyLower); mid == 0 || mid == n {
			t.Fatalf("pivot left one band empty (mid %d): the blocked kernel did not run", mid)
		}
	})
	if next != len(tabs) {
		t.Fatalf("partitioned %d tables, built %d", next, len(tabs))
	}
	if allocs != 0 {
		t.Fatalf("Partition of a fresh %d-row table: %v allocs, want 0", n, allocs)
	}
}
