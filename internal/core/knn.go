package core

import (
	"math"

	"repro/internal/geom"
)

// Neighbor is one k-nearest-neighbor result: an object ID and its squared
// box distance to the query point.
type Neighbor struct {
	ID     int32
	DistSq float64
}

// KNN returns the k objects nearest to p (by minimum box distance), closest
// first. The paper positions range queries as "the building block for many
// other spatial queries" (Sec. 2); KNN is built exactly that way (see knn),
// and each probe refines the index around p as a side effect. Pending
// inserts and tombstones are merged into the ranking, never folded into the
// lanes: only Flush does that, called explicitly or after enough writes.
func (ix *Index) KNN(p geom.Point, k int) []Neighbor {
	nn, _ := ix.knn(ix.live.Load(), p, k, crackingProbe)
	return nn
}

// KNNShared is KNN on the shared read path: the same search with a
// read-only probe, so a write burst does not evict KNN readers. It reports
// false when the probed region is not yet converged or the structure moved
// mid-search.
func (ix *Index) KNNShared(p geom.Point, k int) ([]Neighbor, bool) {
	v := ix.live.Load()
	e := ix.epoch.Load()
	nn, ok := ix.knn(v, p, k, sharedProbe)
	if !ok || ix.epoch.Load() != e {
		return nil, false
	}
	if !ix.noStats {
		ix.sharedQueries.Add(1)
	}
	return nn, true
}

// The kNN probes append the lane positions of the objects intersecting q to
// out and report whether they could answer. crackingProbe is a range query
// that refines the index around q; sharedProbe is read-only and bails where
// q reaches a slice that still needs refinement. It records no heat: one
// KNN re-walks the same slices once per expansion, which would overweight
// them in the map.
func crackingProbe(ix *Index, q geom.Box, out []int32) ([]int32, bool) {
	return ix.queryPositions(q, out), true
}

func sharedProbe(ix *Index, q geom.Box, out []int32) ([]int32, bool) {
	return ix.queryListShared(q, ix.root, 0, out, false)
}

// knn is the kNN search over v's view — lanes plus visible deltas — for
// both paths. A search cube sized from the lane density doubles until it
// holds k lane candidates; if tombstones or a far-away p leave fewer than
// k visible candidates, the search widens to everything; and one final
// probe at the k-th candidate's distance guarantees no closer object is
// missed (Roussopoulos et al., SIGMOD 1995). Pending objects are ranked on
// every pass, so the result is exact whatever the probe geometry. It
// reports false only when probe does.
func (ix *Index) knn(v *Version, p geom.Point, k int,
	probe func(*Index, geom.Box, []int32) ([]int32, bool)) ([]Neighbor, bool) {
	visible := v.table.Len() + len(v.pending) - len(v.deleted)
	if k <= 0 || visible <= 0 {
		return nil, true
	}
	if k > visible {
		k = visible
	}
	nn := make([]Neighbor, 0, k)
	n := v.table.Len()
	if n == 0 {
		// Everything lives in pending: rank it directly.
		return rankVisible(nil, v, p, k, nn), true
	}
	span := v.dataMBB
	// Initial cube: volume sized for an expected 2k objects under a uniform
	// density assumption; clamped to a sane floor.
	side := math.Cbrt(span.Volume() * 2 * float64(k) / float64(n))
	if side <= 0 || math.IsNaN(side) {
		side = 1
	}
	maxSide := 0.0
	for d := 0; d < geom.Dims; d++ {
		if e := span.Extent(d); e > maxSide {
			maxSide = e
		}
	}
	var pos []int32
	var ok bool
	for {
		if pos, ok = probe(ix, geom.BoxAt(p, side), pos[:0]); !ok {
			return nil, false
		}
		if len(pos) >= k || side > 2*maxSide+1 {
			break
		}
		side *= 2
	}
	nn = rankVisible(pos, v, p, k, nn)
	if len(nn) < k {
		// Tombstones (or a far-away p) starved the probe cube, and a
		// partial candidate set is not necessarily the nearest one: widen
		// to everything so the ranking is exact.
		if pos, ok = probe(ix, span.Expand(geom.Point{1, 1, 1}), pos[:0]); !ok {
			return nil, false
		}
		nn = rankVisible(pos, v, p, k, nn)
	}
	if len(nn) < k {
		return nn, true
	}
	// Exactness pass: the k-th candidate bounds the true kNN radius.
	radius := math.Sqrt(nn[k-1].DistSq)
	if pos, ok = probe(ix, geom.BoxAt(p, 2*radius+1e-9), pos[:0]); !ok {
		return nil, false
	}
	return rankVisible(pos, v, p, k, nn), true
}

// rankVisible selects into nn (reset first, never grown past k) the k
// nearest of v's visible candidates, closest first with ID as tie-break:
// the lane positions pos whose ID is not tombstoned, plus every visible
// pending object (few and unindexed, so ranking all of them is cheap).
func rankVisible(pos []int32, v *Version, p geom.Point, k int, nn []Neighbor) []Neighbor {
	nn = nn[:0]
	for _, j := range pos {
		id := v.table.ID[j]
		if _, dead := v.deleted[id]; !dead {
			nn = offer(nn, k, Neighbor{ID: id, DistSq: v.table.MinDistSq(int(j), p)})
		}
	}
	for i := range v.pending {
		o := &v.pending[i]
		if _, dead := v.deleted[o.ID]; !dead {
			nn = offer(nn, k, Neighbor{ID: o.ID, DistSq: o.MinDistSq(p)})
		}
	}
	// Heapsort's second half: the max-heap becomes ascending order in place.
	for end := len(nn) - 1; end > 0; end-- {
		nn[0], nn[end] = nn[end], nn[0]
		siftDown(nn[:end])
	}
	return nn
}

// farther orders neighbors by distance, then ID.
func farther(a, b Neighbor) bool {
	if a.DistSq != b.DistSq {
		return a.DistSq > b.DistSq
	}
	return a.ID > b.ID
}

// offer adds c to the max-heap h (farthest on top) holding at most k
// neighbors, evicting the farthest when c is closer and h is full.
func offer(h []Neighbor, k int, c Neighbor) []Neighbor {
	if len(h) < k {
		h = append(h, c)
		for i := len(h) - 1; i > 0; {
			up := (i - 1) / 2
			if !farther(h[i], h[up]) {
				break
			}
			h[i], h[up] = h[up], h[i]
			i = up
		}
		return h
	}
	if !farther(h[0], c) {
		return h
	}
	h[0] = c
	siftDown(h)
	return h
}

// siftDown restores the max-heap property of h after its root changed.
func siftDown(h []Neighbor) {
	for i := 0; ; {
		m := 2*i + 1
		if m >= len(h) {
			return
		}
		if r := m + 1; r < len(h) && farther(h[r], h[m]) {
			m = r
		}
		if !farther(h[m], h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
