// Package colstore is the columnar (structure-of-arrays) storage layout
// behind the QUASII hot path. Objects live as seven contiguous lanes — one
// []float64 per dimension for the lower and upper coordinates plus an
// []int32 identifier lane — instead of an array of 56-byte structs.
//
// The layout exists for the two kernels every query runs:
//
//   - Partition (cracking) streams one 8-byte key lane instead of striding
//     through whole structs, so the comparison scan is pure sequential
//     memory traffic and the per-band bounds tracking reads exactly the two
//     lanes it needs.
//   - ScanIntersect (the bottom-level interval filter) tests each lane
//     against the query interval with branch-light compare-and-mask code
//     over contiguous memory the compiler keeps in cache.
//
// The AoS geom.Object API remains the public surface of the index packages;
// a Table is built from objects once at construction and materialized back
// only for persistence.
package colstore

import (
	"math"

	"repro/internal/geom"
)

// KeyMode selects the representative coordinate of a row in a dimension,
// mirroring core.AssignMode (lower corner, center, upper corner). The
// numeric values must stay aligned with core's constants.
type KeyMode uint8

const (
	// KeyLower uses the row's lower coordinate (the paper's default).
	KeyLower KeyMode = iota
	// KeyCenter uses the row's center coordinate.
	KeyCenter
	// KeyUpper uses the row's upper coordinate.
	KeyUpper
)

// Bounds tracks the exact extent of a row band in one dimension: the
// minimum lower coordinate and the maximum upper coordinate of its rows.
type Bounds struct {
	Min, Max float64
}

// NewBounds returns the identity bounds (empty band).
func NewBounds() Bounds { return Bounds{Min: math.Inf(1), Max: math.Inf(-1)} }

// Table stores n spatial objects as structure-of-arrays: per-dimension
// lower/upper coordinate lanes plus an ID lane, all of equal length. The
// lanes are exported for zero-overhead access from the index hot loops;
// mutating their lengths directly would corrupt the table — use the
// methods.
type Table struct {
	Min [geom.Dims][]float64
	Max [geom.Dims][]float64
	ID  []int32
}

// FromObjects ingests objs into a fresh table. The input slice is not
// retained.
func FromObjects(objs []geom.Object) *Table {
	t := &Table{}
	t.Reload(objs)
	return t
}

// Reload overwrites the table's rows with objs, reusing the existing lanes
// when they are large enough.
func (t *Table) Reload(objs []geom.Object) {
	n := len(objs)
	// Lane capacities can diverge after AppendObjects (append's size-class
	// rounding differs between float64 and int32 lanes), so every lane must
	// clear the bar before the reuse branch is taken.
	fits := cap(t.ID) >= n
	for d := 0; d < geom.Dims && fits; d++ {
		fits = cap(t.Min[d]) >= n && cap(t.Max[d]) >= n
	}
	if !fits {
		for d := 0; d < geom.Dims; d++ {
			t.Min[d] = make([]float64, n)
			t.Max[d] = make([]float64, n)
		}
		t.ID = make([]int32, n)
	} else {
		for d := 0; d < geom.Dims; d++ {
			t.Min[d] = t.Min[d][:n]
			t.Max[d] = t.Max[d][:n]
		}
		t.ID = t.ID[:n]
	}
	for d := 0; d < geom.Dims; d++ {
		min, max := t.Min[d], t.Max[d]
		for i := range objs {
			min[i] = objs[i].Min[d]
			max[i] = objs[i].Max[d]
		}
	}
	for i := range objs {
		t.ID[i] = objs[i].ID
	}
}

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.ID) }

// BoxOf reconstructs row i's bounding box.
func (t *Table) BoxOf(i int) geom.Box {
	var b geom.Box
	for d := 0; d < geom.Dims; d++ {
		b.Min[d] = t.Min[d][i]
		b.Max[d] = t.Max[d][i]
	}
	return b
}

// ObjectAt reconstructs row i as a geom.Object.
func (t *Table) ObjectAt(i int) geom.Object {
	return geom.Object{Box: t.BoxOf(i), ID: t.ID[i]}
}

// Objects materializes every row, appending to out (pass nil for a fresh
// slice). Used by persistence and debugging — never on the query path.
func (t *Table) Objects(out []geom.Object) []geom.Object {
	for i := 0; i < t.Len(); i++ {
		out = append(out, t.ObjectAt(i))
	}
	return out
}

// AppendObjects adds rows for objs at the end of the table.
func (t *Table) AppendObjects(objs []geom.Object) {
	for i := range objs {
		for d := 0; d < geom.Dims; d++ {
			t.Min[d] = append(t.Min[d], objs[i].Min[d])
			t.Max[d] = append(t.Max[d], objs[i].Max[d])
		}
		t.ID = append(t.ID, objs[i].ID)
	}
}

// Truncate shrinks the table to its first n rows.
func (t *Table) Truncate(n int) {
	for d := 0; d < geom.Dims; d++ {
		t.Min[d] = t.Min[d][:n]
		t.Max[d] = t.Max[d][:n]
	}
	t.ID = t.ID[:n]
}

// Compact removes every row whose ID is in dead, preserving the order of
// the survivors, and returns the new length.
func (t *Table) Compact(dead map[int32]struct{}) int {
	if len(dead) == 0 {
		return t.Len()
	}
	w := 0
	for i := 0; i < t.Len(); i++ {
		if _, gone := dead[t.ID[i]]; gone {
			continue
		}
		if w != i {
			for d := 0; d < geom.Dims; d++ {
				t.Min[d][w] = t.Min[d][i]
				t.Max[d][w] = t.Max[d][i]
			}
			t.ID[w] = t.ID[i]
		}
		w++
	}
	t.Truncate(w)
	return w
}

// Swap exchanges rows i and j across all seven lanes.
func (t *Table) Swap(i, j int) {
	for d := 0; d < geom.Dims; d++ {
		t.Min[d][i], t.Min[d][j] = t.Min[d][j], t.Min[d][i]
		t.Max[d][i], t.Max[d][j] = t.Max[d][j], t.Max[d][i]
	}
	t.ID[i], t.ID[j] = t.ID[j], t.ID[i]
}

// MBB returns the minimum bounding box of rows [lo, hi). It runs on every
// slice finalization, so the reductions use the halved-chain lane kernels.
func (t *Table) MBB(lo, hi int) geom.Box {
	box := geom.EmptyBox()
	if lo >= hi {
		return box
	}
	for d := 0; d < geom.Dims; d++ {
		box.Min[d] = minLane(t.Min[d][lo:hi])
		box.Max[d] = maxLane(t.Max[d][lo:hi])
	}
	return box
}

// LaneBounds returns the minimum lower and maximum upper coordinate of
// dimension d over rows [lo, hi) — one dimension's stripe of MBB, for
// callers that already know the other dimensions' bounds.
func (t *Table) LaneBounds(d, lo, hi int) (float64, float64) {
	if lo >= hi {
		return math.Inf(1), math.Inf(-1)
	}
	return minLane(t.Min[d][lo:hi]), maxLane(t.Max[d][lo:hi])
}

// MaxExtents returns, per dimension, the maximum extent (Max-Min) over all
// rows. Query-extension techniques need it to bound how far a row's
// representative coordinate can sit from a query it intersects.
func (t *Table) MaxExtents() geom.Point {
	var ext geom.Point
	for d := 0; d < geom.Dims; d++ {
		min, max := t.Min[d], t.Max[d]
		var e float64
		for k := range min {
			if v := max[k] - min[k]; v > e {
				e = v
			}
		}
		ext[d] = e
	}
	return ext
}

// key returns the representative coordinate of row i in dimension dim.
func (t *Table) key(i, dim int, mode KeyMode) float64 {
	switch mode {
	case KeyCenter:
		return (t.Min[dim][i] + t.Max[dim][i]) / 2
	case KeyUpper:
		return t.Max[dim][i]
	default:
		return t.Min[dim][i]
	}
}

// KeyRange returns the minimum and maximum representative coordinate of
// rows [lo, hi) in dimension dim.
func (t *Table) KeyRange(lo, hi, dim int, mode KeyMode) (min, max float64) {
	min, max = math.Inf(1), math.Inf(-1)
	if lo >= hi {
		return min, max
	}
	if mode == KeyLower {
		return minMaxLane(t.Min[dim][lo:hi])
	}
	for i := lo; i < hi; i++ {
		v := t.key(i, dim, mode)
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}

// Partition is the cracking kernel: it reorders rows [lo, hi) so rows whose
// representative coordinate in dim is < pivot precede the rest, returning
// the split position together with the exact bounds of both bands in dim.
// Bounds are tracked in the same pass — each row's final side is known
// either when a scan pointer passes it or when it is swapped.
func (t *Table) Partition(lo, hi, dim int, pivot float64, mode KeyMode) (mid int, left, right Bounds) {
	if mode == KeyLower {
		return t.partitionLower(lo, hi, dim, pivot)
	}
	return t.partitionGeneric(lo, hi, dim, pivot, mode)
}

// scalarCutoff is the range size below which the branch-free kernel's
// multi-pass structure costs more than its mispredict savings; small ranges
// (the common case once the hierarchy has deepened) use the scalar
// two-pointer kernel instead.
const scalarCutoff = 128

// partitionBlock is the number of misplaced-row positions each side of the
// branch-free kernel gathers before it swaps: two 1 KiB stack arrays, so the
// kernel's memory is constant in the range size. A power of two, so masking
// a cursor with partitionBlock-1 proves it in bounds.
const partitionBlock = 256

// partitionLower is the specialized kernel for lower-corner assignment (the
// paper's default): the key lane IS the Min lane, so every pass streams
// contiguous []float64 memory. Large ranges use a branch-free "fancy scan"
// after Pirk et al. (DaMoN 2014): the classic two-pointer loop exits on a
// data-dependent comparison that is a coin flip on unsorted data, so the
// branch predictor misses every other row. Instead we (1) count the left
// band branchlessly, which fixes the split position mid, then (2) walk
// [lo, mid) and [mid, hi) with one cursor each, gathering the positions of
// up to partitionBlock misplaced rows per side into stack arrays with
// unconditional stores and flag-increment counters while the staying rows
// fold into their band's bounds, and (3) swap the min(na, nb) gathered
// pairs across all seven lanes with no conditionals, folding the movers
// into their destination band's bounds, carrying the unpaired rest over to
// the next block. There is no side array in proportion to the range: the
// kernel holds 2 KiB of stack whatever hi-lo is.
func (t *Table) partitionLower(lo, hi, dim int, pivot float64) (mid int, left, right Bounds) {
	if hi-lo <= scalarCutoff {
		return t.partitionLowerScalar(lo, hi, dim, pivot)
	}
	return t.partitionLowerBlocked(lo, hi, dim, pivot)
}

// partitionLowerBlocked is the branch-free kernel described above; correct
// for any range, it pays off above scalarCutoff.
func (t *Table) partitionLowerBlocked(lo, hi, dim int, pivot float64) (mid int, left, right Bounds) {
	key := t.Min[dim]
	up := t.Max[dim]
	// Pass 1: size the left band. The flag sum is branchless and the range
	// loop over the key segment is bounds-check free.
	cnt := 0
	for _, v := range key[lo:hi] {
		cnt += b2i(v < pivot)
	}
	mid = lo + cnt

	// One-sided outcomes: the whole range is one band; two plain reductions
	// deliver its bounds.
	if mid == hi || mid == lo {
		bd := Bounds{Min: minLane(key[lo:hi]), Max: maxLane(up[lo:hi])}
		if mid == hi {
			return mid, bd, NewBounds()
		}
		return mid, NewBounds(), bd
	}

	d1, d2 := otherDims(dim)
	min1, max1 := t.Min[d1], t.Max[d1]
	min2, max2 := t.Min[d2], t.Max[d2]
	ids := t.ID
	var a, b [partitionBlock]int32         // misplaced positions in [lo, mid) and [mid, hi)
	lf, rf := newBandFold(), newBandFold() // bounds of the rows that stay left / right
	na, nb := 0, 0
	i, j := lo, mid
	for i < mid || j < hi {
		// Gather: each side scans only as many rows as it has free slots,
		// so its counter cannot pass partitionBlock. A left row is
		// misplaced when its key is not below the pivot (flip 1), a right
		// row when it is (flip 0).
		k := min(partitionBlock-na, mid-i)
		lf, na = lf.gather(key[i:i+k], up[i:i+k], i, pivot, 1, &a, na)
		i += k
		k = min(partitionBlock-nb, hi-j)
		rf, nb = rf.gather(key[j:j+k], up[j:j+k], j, pivot, 0, &b, nb)
		j += k

		// Swap the gathered pairs. Both position sequences are monotone,
		// so every lane's cache lines are touched in order; the movers'
		// values are already in registers, so their contributions to the
		// destination band's bounds fold in for free.
		m := min(na, nb)
		for p := 0; p < m; p++ {
			x, y := a[p], b[p]
			kx, ky := key[x], key[y]
			ux, uy := up[x], up[y]
			rf.min0 = min(rf.min0, kx)
			rf.max0 = max(rf.max0, ux)
			lf.min0 = min(lf.min0, ky)
			lf.max0 = max(lf.max0, uy)
			key[x], key[y] = ky, kx
			up[x], up[y] = uy, ux
			min1[x], min1[y] = min1[y], min1[x]
			max1[x], max1[y] = max1[y], max1[x]
			min2[x], min2[y] = min2[y], min2[x]
			max2[x], max2[y] = max2[y], max2[x]
			ids[x], ids[y] = ids[y], ids[x]
		}
		// Carry the unpaired positions of the fuller side to the front.
		// Both sides hold as many misplaced rows as the other (pass 1 fixed
		// mid), so once both cursors are through, nothing is left over.
		na = copy(a[:], a[m:na])
		nb = copy(b[:], b[m:nb])
	}
	return mid, lf.bounds(), rf.bounds()
}

// bandFold accumulates one band's bounds in two independent MINSD/MAXSD
// chains, halving the loop-carried dependency of the gather scan. It is
// passed by value so the compiler keeps its four fields in registers.
type bandFold struct {
	min0, min1, max0, max1 float64
}

func newBandFold() bandFold {
	return bandFold{min0: math.Inf(1), min1: math.Inf(1), max0: math.Inf(-1), max1: math.Inf(-1)}
}

func (f bandFold) bounds() Bounds {
	return Bounds{Min: min(f.min0, f.min1), Max: max(f.max0, f.max1)}
}

// gather scans the rows at positions base, base+1, ... whose key and upper
// coordinates are ks and us. A row is misplaced when (key < pivot) XOR flip
// is 1: its position is appended to idx[n:] with an unconditional store and
// a flag-increment counter. Every other row stays and folds into f. The
// fold is branchless too: the flag widens to a bit mask that routes either
// the coordinate or the identity (±Inf) into the min/max chain. The caller
// guarantees n+len(ks) <= partitionBlock; the updated fold and count are
// returned.
func (f bandFold) gather(ks, us []float64, base int, pivot float64, flip int, idx *[partitionBlock]int32, n int) (bandFold, int) {
	posInfBits := math.Float64bits(math.Inf(1))
	negInfBits := math.Float64bits(math.Inf(-1))
	mn0, mn1, mx0, mx1 := f.min0, f.min1, f.max0, f.max1
	us = us[:len(ks)]
	o := 0
	for ; o+1 < len(ks); o += 2 {
		f0 := b2i(ks[o] < pivot) ^ flip // 1 = misplaced
		m0 := uint64(f0) - 1            // all ones = stays
		mn0 = min(mn0, math.Float64frombits(math.Float64bits(ks[o])&m0|posInfBits&^m0))
		mx0 = max(mx0, math.Float64frombits(math.Float64bits(us[o])&m0|negInfBits&^m0))
		idx[n&(partitionBlock-1)] = int32(base + o)
		n += f0
		f1 := b2i(ks[o+1] < pivot) ^ flip
		m1 := uint64(f1) - 1
		mn1 = min(mn1, math.Float64frombits(math.Float64bits(ks[o+1])&m1|posInfBits&^m1))
		mx1 = max(mx1, math.Float64frombits(math.Float64bits(us[o+1])&m1|negInfBits&^m1))
		idx[n&(partitionBlock-1)] = int32(base + o + 1)
		n += f1
	}
	if o < len(ks) {
		f0 := b2i(ks[o] < pivot) ^ flip
		m0 := uint64(f0) - 1
		mn0 = min(mn0, math.Float64frombits(math.Float64bits(ks[o])&m0|posInfBits&^m0))
		mx0 = max(mx0, math.Float64frombits(math.Float64bits(us[o])&m0|negInfBits&^m0))
		idx[n&(partitionBlock-1)] = int32(base + o)
		n += f0
	}
	return bandFold{min0: mn0, min1: mn1, max0: mx0, max1: mx1}, n
}

// minLane reduces the minimum of a lane segment with a halved MINSD chain.
func minLane(lane []float64) float64 {
	mn0, mn1 := math.Inf(1), math.Inf(1)
	k := 0
	for ; k+1 < len(lane); k += 2 {
		mn0 = min(mn0, lane[k])
		mn1 = min(mn1, lane[k+1])
	}
	if k < len(lane) {
		mn0 = min(mn0, lane[k])
	}
	return min(mn0, mn1)
}

// maxLane reduces the maximum of a lane segment with a halved MAXSD chain.
func maxLane(lane []float64) float64 {
	mx0, mx1 := math.Inf(-1), math.Inf(-1)
	k := 0
	for ; k+1 < len(lane); k += 2 {
		mx0 = max(mx0, lane[k])
		mx1 = max(mx1, lane[k+1])
	}
	if k < len(lane) {
		mx0 = max(mx0, lane[k])
	}
	return max(mx0, mx1)
}

// partitionLowerScalar is the two-pointer kernel used for small ranges,
// with all seven lanes hoisted into locals so swaps run inline and the
// bounds tracking lowered to branchless MINSD/MAXSD via the builtin
// min/max.
func (t *Table) partitionLowerScalar(lo, hi, dim int, pivot float64) (mid int, left, right Bounds) {
	d1, d2 := otherDims(dim)
	key := t.Min[dim]
	up := t.Max[dim]
	min1, max1 := t.Min[d1], t.Max[d1]
	min2, max2 := t.Min[d2], t.Max[d2]
	ids := t.ID
	left, right = NewBounds(), NewBounds()
	i, j := lo, hi-1
	for i <= j {
		for i <= j && key[i] < pivot {
			left.Min = min(left.Min, key[i])
			left.Max = max(left.Max, up[i])
			i++
		}
		for i <= j && key[j] >= pivot {
			right.Min = min(right.Min, key[j])
			right.Max = max(right.Max, up[j])
			j--
		}
		if i < j {
			key[i], key[j] = key[j], key[i]
			up[i], up[j] = up[j], up[i]
			min1[i], min1[j] = min1[j], min1[i]
			max1[i], max1[j] = max1[j], max1[i]
			min2[i], min2[j] = min2[j], min2[i]
			max2[i], max2[j] = max2[j], max2[i]
			ids[i], ids[j] = ids[j], ids[i]
			left.Min = min(left.Min, key[i])
			left.Max = max(left.Max, up[i])
			right.Min = min(right.Min, key[j])
			right.Max = max(right.Max, up[j])
			i++
			j--
		}
	}
	return i, left, right
}

// minMaxLane reduces the minimum and maximum of one lane segment in a
// single traversal, two accumulator pairs per bound to halve the chains.
func minMaxLane(lane []float64) (float64, float64) {
	mn0, mn1 := math.Inf(1), math.Inf(1)
	mx0, mx1 := math.Inf(-1), math.Inf(-1)
	k := 0
	for ; k+1 < len(lane); k += 2 {
		mn0 = min(mn0, lane[k])
		mx0 = max(mx0, lane[k])
		mn1 = min(mn1, lane[k+1])
		mx1 = max(mx1, lane[k+1])
	}
	if k < len(lane) {
		mn0 = min(mn0, lane[k])
		mx0 = max(mx0, lane[k])
	}
	return min(mn0, mn1), max(mx0, mx1)
}

// b2i converts a comparison result to 0/1 without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// otherDims returns the two dimensions complementing dim (compile-time
// constant fan-out for Dims == 3).
func otherDims(dim int) (int, int) {
	switch dim {
	case 0:
		return 1, 2
	case 1:
		return 0, 2
	default:
		return 0, 1
	}
}

// partitionGeneric handles the ablation assignment modes (center/upper
// representative coordinates).
func (t *Table) partitionGeneric(lo, hi, dim int, pivot float64, mode KeyMode) (mid int, left, right Bounds) {
	min := t.Min[dim]
	max := t.Max[dim]
	left, right = NewBounds(), NewBounds()
	add := func(b *Bounds, k int) {
		if min[k] < b.Min {
			b.Min = min[k]
		}
		if max[k] > b.Max {
			b.Max = max[k]
		}
	}
	i, j := lo, hi-1
	for i <= j {
		for i <= j && t.key(i, dim, mode) < pivot {
			add(&left, i)
			i++
		}
		for i <= j && t.key(j, dim, mode) >= pivot {
			add(&right, j)
			j--
		}
		if i < j {
			t.Swap(i, j)
			add(&left, i)
			add(&right, j)
			i++
			j--
		}
	}
	return i, left, right
}

// ScanIntersect appends the positions of every row in [lo, hi) whose box
// intersects q. The test is branch-light: all six interval comparisons are
// evaluated unconditionally per row and combined with bitwise AND, so the
// loop runs over seven contiguous lanes with a single conditional append —
// no short-circuit branches for the predictor to miss.
func (t *Table) ScanIntersect(lo, hi int, q geom.Box, out []int32) []int32 {
	if lo >= hi {
		return out
	}
	min0 := t.Min[0][lo:hi]
	n := len(min0)
	max0 := t.Max[0][lo:hi][:n]
	min1 := t.Min[1][lo:hi][:n]
	max1 := t.Max[1][lo:hi][:n]
	min2 := t.Min[2][lo:hi][:n]
	max2 := t.Max[2][lo:hi][:n]
	qlo0, qhi0 := q.Min[0], q.Max[0]
	qlo1, qhi1 := q.Min[1], q.Max[1]
	qlo2, qhi2 := q.Min[2], q.Max[2]
	for k := range min0 {
		ok := b2i(min0[k] <= qhi0) & b2i(max0[k] >= qlo0) &
			b2i(min1[k] <= qhi1) & b2i(max1[k] >= qlo1) &
			b2i(min2[k] <= qhi2) & b2i(max2[k] >= qlo2)
		if ok != 0 {
			out = append(out, int32(lo+k))
		}
	}
	return out
}

// CountIntersect returns the number of rows in [lo, hi) whose box
// intersects q — ScanIntersect without the output vector, for count-only
// callers (shared-path Count) that want to stay allocation-free. The flag
// sum is fully branchless.
func (t *Table) CountIntersect(lo, hi int, q geom.Box) int {
	if lo >= hi {
		return 0
	}
	min0 := t.Min[0][lo:hi]
	n := len(min0)
	max0 := t.Max[0][lo:hi][:n]
	min1 := t.Min[1][lo:hi][:n]
	max1 := t.Max[1][lo:hi][:n]
	min2 := t.Min[2][lo:hi][:n]
	max2 := t.Max[2][lo:hi][:n]
	qlo0, qhi0 := q.Min[0], q.Max[0]
	qlo1, qhi1 := q.Min[1], q.Max[1]
	qlo2, qhi2 := q.Min[2], q.Max[2]
	cnt := 0
	for k := range min0 {
		cnt += b2i(min0[k] <= qhi0) & b2i(max0[k] >= qlo0) &
			b2i(min1[k] <= qhi1) & b2i(max1[k] >= qlo1) &
			b2i(min2[k] <= qhi2) & b2i(max2[k] >= qlo2)
	}
	return cnt
}

// MinDistSq returns the squared minimum distance between point p and row
// i's box (0 when p lies inside). Used by kNN candidate ranking.
func (t *Table) MinDistSq(i int, p geom.Point) float64 {
	var sum float64
	for d := 0; d < geom.Dims; d++ {
		switch {
		case p[d] < t.Min[d][i]:
			diff := t.Min[d][i] - p[d]
			sum += diff * diff
		case p[d] > t.Max[d][i]:
			diff := p[d] - t.Max[d][i]
			sum += diff * diff
		}
	}
	return sum
}
