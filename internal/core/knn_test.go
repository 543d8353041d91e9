package core

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/workload"
)

// bruteKNN ranks every object of the visible set by box distance to p and
// keeps the k nearest, ID as tie-break — the oracle for both kNN paths.
func bruteKNN(visible map[int32]geom.Object, p geom.Point, k int) []Neighbor {
	all := make([]Neighbor, 0, len(visible))
	for id, o := range visible {
		all = append(all, Neighbor{ID: id, DistSq: o.MinDistSq(p)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].DistSq != all[j].DistSq {
			return all[i].DistSq < all[j].DistSq
		}
		return all[i].ID < all[j].ID
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func equalNeighbors(a, b []Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestKNNDeltasNoFlush runs both kNN paths on an unconverged index carrying
// pending inserts (one outside the lanes' bounding box) and tombstones (one
// on a pending object): the answers must match the brute-force ranking of
// the visible set, and no read may fold the deltas into the lanes.
func TestKNNDeltasNoFlush(t *testing.T) {
	data := dataset.Uniform(3000, 540)
	ix := New(dataset.Clone(data), Config{Tau: 16})
	for _, q := range workload.Uniform(dataset.Universe(), 5, 1e-3, 541) {
		ix.Query(q, nil)
	}
	visible := make(map[int32]geom.Object, len(data))
	for _, o := range data {
		visible[o.ID] = o
	}
	rng := rand.New(rand.NewSource(542))
	added := make([]geom.Object, 200)
	for i := range added {
		var c geom.Point
		for d := range c {
			c[d] = rng.Float64() * dataset.UniverseSide
		}
		added[i] = geom.Object{Box: geom.BoxAt(c, 5), ID: int32(100000 + i)}
	}
	farPoint := geom.Point{3 * dataset.UniverseSide, -dataset.UniverseSide, 2 * dataset.UniverseSide}
	far := geom.Object{Box: geom.BoxAt(farPoint, 1), ID: 99999}
	added = append(added, far)
	// Thirty boxes around tiePoint, all at distance 0 from it: the ranking
	// must break the ties by ID.
	tiePoint := geom.Point{5000, 5000, 5000}
	for i, id := range rng.Perm(30) {
		added = append(added, geom.Object{Box: geom.BoxAt(tiePoint, float64(2+i%3)), ID: int32(200000 + id)})
	}
	ix.Append(added...)
	for _, o := range added {
		visible[o.ID] = o
	}
	if ix.live.Load().table.MBB(0, ix.live.Load().table.Len()).Contains(far.Box) {
		t.Fatal("test setup: the far object lies inside the lanes' bounding box")
	}
	for _, i := range rng.Perm(len(data))[:300] {
		if !ix.Delete(data[i].ID, data[i].Box) {
			t.Fatalf("Delete(%d) missed a lane object", data[i].ID)
		}
		delete(visible, data[i].ID)
	}
	if !ix.Delete(added[0].ID, added[0].Box) {
		t.Fatal("Delete missed a pending object")
	}
	delete(visible, added[0].ID)
	if ix.Converged() {
		t.Fatal("test setup: the index is already converged")
	}

	pending, deleted, flushes := ix.Pending(), ix.Deleted(), ix.Stats().Flushes
	points := []geom.Point{farPoint, tiePoint, added[0].Box.Center(), added[1].Box.Center()}
	for i := 0; i < 25; i++ {
		points = append(points, data[rng.Intn(len(data))].Box.Center())
	}
	shared := 0
	for _, p := range points {
		for _, k := range []int{1, 10, 60, len(visible) + 10} {
			want := bruteKNN(visible, p, k)
			if got := ix.KNN(p, k); !equalNeighbors(got, want) {
				t.Fatalf("KNN(%v, %d): %d results, want %d", p, k, len(got), len(want))
			}
			if got, ok := ix.KNNShared(p, k); ok {
				shared++
				if !equalNeighbors(got, want) {
					t.Fatalf("KNNShared(%v, %d): %d results, want %d", p, k, len(got), len(want))
				}
			}
		}
	}
	if shared == 0 {
		t.Fatal("KNNShared never answered: the shared comparison was not exercised")
	}
	if ix.Pending() != pending || ix.Deleted() != deleted || ix.Stats().Flushes != flushes {
		t.Fatalf("KNN folded deltas: pending %d->%d, deleted %d->%d, flushes %d->%d",
			pending, ix.Pending(), deleted, ix.Deleted(), flushes, ix.Stats().Flushes)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFlushCountsOnlyFolds checks Stats.Flushes: a Flush with no deltas is
// a no-op and is not counted.
func TestFlushCountsOnlyFolds(t *testing.T) {
	data := dataset.Uniform(500, 543)
	ix := New(dataset.Clone(data), Config{Tau: 16})
	ix.Flush()
	if got := ix.Stats().Flushes; got != 0 {
		t.Fatalf("Flushes after a no-op Flush = %d, want 0", got)
	}
	ix.Append(geom.Object{Box: geom.BoxAt(geom.Point{1, 2, 3}, 1), ID: 9999})
	ix.Flush()
	ix.Flush()
	if got := ix.Stats().Flushes; got != 1 {
		t.Fatalf("Flushes = %d, want 1", got)
	}
}
