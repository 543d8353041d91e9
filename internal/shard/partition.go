// STR-style spatial partitioning: the sort-tile-recursive discipline the
// R-tree bulk loader uses, applied once at the top to carve the dataset into
// P contiguous tiles of near-equal cardinality. STR only needs the rank cuts
// between tiles, not a sorted run, so each level places its cuts by in-place
// multi-rank selection (introselect) in O(n) expected time instead of
// sorting: shard membership is exactly that of a full sort, up to ties.

package shard

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/crack"
	"repro/internal/geom"
)

// partition copies data and splits it into at most p spatial parts of
// near-equal size. Tiling cuts by rank (equal object counts), not by
// coordinate, so skewed data still yields balanced shards; fully degenerate
// data (every representative point identical) falls back to round-robin
// assignment, which preserves balance when tiling has nothing to cut on.
// Every returned part is non-empty.
func partition(data []geom.Object, p int) [][]geom.Object {
	objs := make([]geom.Object, len(data))
	copy(objs, data)
	if p > len(objs) {
		p = len(objs)
	}
	if p <= 1 {
		return [][]geom.Object{objs}
	}
	if degenerate(objs) {
		return roundRobin(objs, p)
	}
	px, py, pz := factor3(p)
	var parts [][]geom.Object
	for _, slab := range tile(objs, px, 0) {
		for _, run := range tile(slab, py, 1) {
			for _, t := range tile(run, pz, 2) {
				if len(t) > 0 {
					parts = append(parts, t)
				}
			}
		}
	}
	return parts
}

// center returns the representative coordinate used for tiling: the object's
// center in dimension d (STR's choice; balanced for volumetric objects).
func center(o *geom.Object, d int) float64 { return (o.Min[d] + o.Max[d]) / 2 }

// degenerate reports whether every object shares the same representative
// point, in which case rank cuts cannot spread them and tiling degrades to an
// arbitrary split with fully overlapping shard boxes.
func degenerate(objs []geom.Object) bool {
	for d := 0; d < geom.Dims; d++ {
		c0 := center(&objs[0], d)
		for i := 1; i < len(objs); i++ {
			if center(&objs[i], d) != c0 {
				return false
			}
		}
	}
	return true
}

// roundRobin deals objects into p parts like cards, keeping sizes within one
// of each other.
func roundRobin(objs []geom.Object, p int) [][]geom.Object {
	parts := make([][]geom.Object, p)
	for i := range objs {
		parts[i%p] = append(parts[i%p], objs[i])
	}
	return parts
}

// tile cuts objs into k contiguous parts of near-equal size by the
// dimension-d representative coordinate: part i holds ranks [i*n/k,
// (i+1)*n/k) and no center in it exceeds any center in part i+1. Parts are
// three-index slices, so they never grow into each other.
func tile(objs []geom.Object, k, d int) [][]geom.Object {
	if k <= 1 || len(objs) <= 1 {
		return [][]geom.Object{objs}
	}
	n := len(objs)
	if k > n {
		k = n
	}
	cuts := make([]int, k-1)
	for i := range cuts {
		cuts[i] = (i + 1) * n / k
	}
	selectRanks(objs, 0, n, cuts, d, 2*bits.Len(uint(n)))
	parts := make([][]geom.Object, 0, k)
	for i := 0; i < k; i++ {
		lo, hi := i*n/k, (i+1)*n/k
		parts = append(parts, objs[lo:hi:hi])
	}
	return parts
}

// selectRanks reorders objs[lo:hi] in place so that for every rank r in
// cuts (ascending, absolute indices into objs) no dimension-d center in
// objs[lo:r] exceeds any in objs[r:hi]. Each round partitions the window
// three ways around a median-of-three pivot, settles every cut that lands
// in the band equal to the pivot (runs of equal keys end there instead of
// recursing forever), and recurses into the sides that still hold cuts.
// When depth rounds are spent the window is sorted instead, which bounds
// the worst case at O(n log n).
func selectRanks(objs []geom.Object, lo, hi int, cuts []int, d, depth int) {
	key := func(o *geom.Object) float64 { return center(o, d) }
	for len(cuts) > 0 && hi-lo > 1 {
		if depth == 0 {
			slices.SortFunc(objs[lo:hi], func(a, b geom.Object) int { return cmp.Compare(key(&a), key(&b)) })
			return
		}
		depth--
		// The band [p, nextafter(p)) holds exactly the keys equal to p (it
		// is empty only for a +Inf or NaN pivot; depth still bounds that).
		p := pivot(objs[lo:hi], d)
		lt, gt := crack.ThreeWay(objs, lo, hi, p, math.Nextafter(p, math.Inf(1)), key)
		selectRanks(objs, gt, hi, cuts[sort.SearchInts(cuts, gt+1):], d, depth)
		hi, cuts = lt, cuts[:sort.SearchInts(cuts, lt)]
	}
}

// pivot returns the median of the dimension-d centers of the first, middle
// and last objects.
func pivot(objs []geom.Object, d int) float64 {
	a, b, c := center(&objs[0], d), center(&objs[len(objs)/2], d), center(&objs[len(objs)-1], d)
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	return max(a, b)
}

// factor3 splits p into three factors px ≥ py ≥ pz with px·py·pz = p, as
// balanced as possible (minimal largest factor). 16 → 4·2·2, 8 → 2·2·2,
// primes fall back to p·1·1.
func factor3(p int) (px, py, pz int) {
	px, py, pz = p, 1, 1
	for c := 1; c*c*c <= p; c++ {
		if p%c != 0 {
			continue
		}
		rem := p / c
		for b := c; b*b <= rem; b++ {
			if rem%b != 0 {
				continue
			}
			if a := rem / b; a < px || (a == px && b < py) {
				px, py, pz = a, b, c
			}
		}
	}
	return px, py, pz
}
