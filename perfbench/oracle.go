package main

import (
	"math"
	"sort"
	"sync"

	"repro/internal/geom"
)

// sweep is the reference the benchmark checks range answers against: a
// plain scan of the objects, pruned by sorting on the lower x coordinate.
// Objects are split by x extent so the rare wide ones do not widen the scan
// window of all the others. It shares no code with the engine.
type sweep struct {
	groups []sweepGroup
}

type sweepGroup struct {
	objs   []geom.Object // sorted by Min[0]
	maxExt float64       // widest x extent in the group
}

// wideExtent separates narrow objects from wide ones in a sweep.
const wideExtent = 16

func newSweep(objs []geom.Object) *sweep {
	var narrow, wide []geom.Object
	for _, o := range objs {
		if o.Box.Extent(0) <= wideExtent {
			narrow = append(narrow, o)
		} else {
			wide = append(wide, o)
		}
	}
	s := &sweep{}
	for _, g := range [][]geom.Object{narrow, wide} {
		sort.Slice(g, func(i, j int) bool { return g[i].Box.Min[0] < g[j].Box.Min[0] })
		ext := 0.0
		for _, o := range g {
			ext = math.Max(ext, o.Box.Extent(0))
		}
		s.groups = append(s.groups, sweepGroup{objs: g, maxExt: ext})
	}
	return s
}

// query appends the IDs of every object intersecting q.
func (s *sweep) query(q geom.Box, out []int32) []int32 {
	for _, g := range s.groups {
		from := q.Min[0] - g.maxExt
		i := sort.Search(len(g.objs), func(i int) bool { return g.objs[i].Box.Min[0] >= from })
		for ; i < len(g.objs) && g.objs[i].Box.Min[0] <= q.Max[0]; i++ {
			if g.objs[i].Box.Intersects(q) {
				out = append(out, g.objs[i].ID)
			}
		}
	}
	return out
}

// answer is an order-independent fingerprint of a set of IDs: its size
// and the sum of a 64-bit mix of each ID. Two sets with equal fingerprints
// are equal except with negligible probability, and comparing them costs
// no allocation, so every answer can be checked.
type answer struct {
	n   int
	sum uint64
}

func mix(id int32) uint64 {
	z := uint64(uint32(id)) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (a *answer) add(id int32) {
	a.n++
	a.sum += mix(id)
}

func fingerprint(ids []int32) answer {
	var a answer
	for _, id := range ids {
		a.add(id)
	}
	return a
}

// splitWrites fingerprints the IDs of the base dataset in ids and returns
// the IDs of the benchmark's own writes separately.
func splitWrites(ids []int32, written []int32) (answer, []int32) {
	var a answer
	for _, id := range ids {
		if id >= writeIDBase {
			written = append(written, id)
		} else {
			a.add(id)
		}
	}
	return a, written
}

// references fingerprints the reference answer of every query, on two
// goroutines.
func references(ref *sweep, queries []geom.Box) []answer {
	out := make([]answer, len(queries))
	parallel(len(queries), func(i int, buf []int32) []int32 {
		buf = ref.query(queries[i], buf[:0])
		out[i] = fingerprint(buf)
		return buf
	})
	return out
}

// parallel calls f(i) for every i in [0, n) on two goroutines, each with
// its own scratch buffer, and returns when all calls have.
func parallel(n int, f func(i int, buf []int32) []int32) {
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf []int32
			for i := w; i < n; i += 2 {
				buf = f(i, buf)
			}
		}(w)
	}
	wg.Wait()
}

// knnRef is the reference answer of one kNN query: the k smallest squared
// distances from the point to any object, ascending. IDs are not compared
// directly, because objects at equal distance may be returned in any order.
type knnRef []float64

// nearestRef computes the reference answer over objs by a full scan.
func nearestRef(objs []geom.Object, p geom.Point, k int) knnRef {
	best := make(knnRef, 0, k+1)
	for i := range objs {
		d := objs[i].Box.MinDistSq(p)
		if len(best) == k && d >= best[k-1] {
			continue
		}
		j := sort.SearchFloat64s(best, d)
		best = append(best, 0)
		copy(best[j+1:], best[j:])
		best[j] = d
		if len(best) > k {
			best = best[:k]
		}
	}
	return best
}

// merge returns the k smallest distances of r and of the objects in extra
// (writes live at query time).
func (r knnRef) merge(extra []geom.Object, p geom.Point, k int) knnRef {
	out := append(knnRef(nil), r...)
	for _, o := range extra {
		out = append(out, o.Box.MinDistSq(p))
	}
	sort.Float64s(out)
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// sameDistances reports whether two ascending distance lists agree, up to
// the rounding of two different distance computations.
func sameDistances(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9*math.Max(1, want[i]) {
			return false
		}
	}
	return true
}

// checkRange compares one range answer with its reference: the base IDs
// must match the reference fingerprint and the benchmark's own writes in
// it must be exactly the live writes that intersect q.
func (e *env) checkRange(what string, ids []int32, want answer, q geom.Box, live []geom.Object) error {
	got, written := splitWrites(ids, nil)
	if got != want {
		return e.mismatch("%s: %d base results, reference has %d", what, got.n, want.n)
	}
	var expect []int32
	for _, o := range live {
		if o.Box.Intersects(q) {
			expect = append(expect, o.ID)
		}
	}
	if !sameIDs(written, expect) {
		return e.mismatch("%s: written objects %v in the answer, expected %v", what, written, expect)
	}
	return nil
}

// sameIDs reports whether a and b hold the same IDs; it sorts both.
func sameIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// neighbor is one kNN result as either surface returns it.
type neighbor struct {
	id     int32
	distSq float64
}

// checkKNN compares one kNN answer with its reference: the distances must
// be the k smallest, and each returned object must really lie at the
// distance reported for it. base[id] is the base object with that ID.
func (e *env) checkKNN(what string, got []neighbor, ref knnRef, p geom.Point, base []geom.Object, live []geom.Object) error {
	want := ref
	if len(live) > 0 {
		want = ref.merge(live, p, knnK)
	}
	dists := make([]float64, len(got))
	for i, n := range got {
		dists[i] = n.distSq
		var box geom.Box
		switch {
		case n.id >= 0 && int(n.id) < len(base):
			box = base[n.id].Box
		case n.id >= writeIDBase:
			found := false
			for _, o := range live {
				if o.ID == n.id {
					box, found = o.Box, true
				}
			}
			if !found {
				return e.mismatch("%s: returned object %d is not live", what, n.id)
			}
		default:
			return e.mismatch("%s: returned unknown object %d", what, n.id)
		}
		if !sameDistances([]float64{box.MinDistSq(p)}, []float64{n.distSq}) {
			return e.mismatch("%s: object %d reported at %g, lies at %g", what, n.id, n.distSq, box.MinDistSq(p))
		}
	}
	if !sameDistances(dists, want) {
		return e.mismatch("%s: distances %v, reference %v", what, dists, want)
	}
	return nil
}
