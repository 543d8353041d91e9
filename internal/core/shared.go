// The shared read path. QUASII converges toward R-tree-like behaviour
// precisely because, after enough queries, most slices are final and never
// cracked again — so the steady state the paper celebrates is a read-mostly
// structure that should be queried under shared access, not behind an
// exclusive lock. The entry points below pin a version (an atomic load of
// the MVCC head — see version.go) and walk the slice hierarchy without
// mutating anything: no finalization, no child creation, no cracking, no
// plain-counter stats. A query whose touched region is fully refined is
// answered in place against the pinned version's view — lanes plus visible
// deltas — regardless of how many appends and deletes race with it. Only a
// slice that still needs structural work makes the walk bail out so the
// caller can retry on the exclusive path (Query / QueryBudgeted), which
// alone mutates the hierarchy and bumps the crack epoch.
//
// # Safety contract
//
// Any number of shared-path calls may run concurrently with each other and
// with version-publishing writers (Append, Delete via DeleteShared). They
// must not run concurrently with the exclusive path — cracking queries and
// Flush — which the sharded engine guarantees with a per-shard RWMutex.
// The crack epoch is the belt to those suspenders: every walk records the
// epoch first and validates it after, so even a misuse race (a structural
// writer sneaking in between the caller's decision and the walk) is
// detected and turned into a fallback instead of a wrong answer. Data
// changes no longer move the epoch, so a write burst cannot evict readers.

package core

import (
	"math"

	"repro/internal/geom"
)

// Epoch returns the crack epoch: a monotonic counter that moves on every
// structural mutation and stands still exactly when the hierarchy does.
// Two equal Epoch reads bracketing a shared walk prove the walk saw a
// frozen structure. Data changes (Append/Delete) do not move it — they
// publish versions; see DataVersion. Safe to call concurrently.
func (ix *Index) Epoch() uint64 { return ix.epoch.Load() }

// Converged reports whether a query touching the whole universe would stay
// on the shared path: no pending inserts and every materialized slice
// refined down to the bottom level. It is a read-only full walk — O(slices)
// — intended for scheduling decisions, not hot loops.
func (ix *Index) Converged() bool {
	if len(ix.live.Load().pending) > 0 {
		return false
	}
	var walk func(l *sliceList, dim int) bool
	walk = func(l *sliceList, dim int) bool {
		for _, s := range l.slices {
			if !s.refined {
				return false
			}
			if dim < geom.Dims-1 {
				if s.children == nil || !walk(s.children, dim+1) {
					return false
				}
			}
		}
		return true
	}
	return ix.root == nil || walk(ix.root, 0)
}

// QueryShared answers q on the shared read path: it pins the live version
// and performs a read-only walk over the already-refined slice hierarchy,
// merging the version's deltas (pending inserts, tombstones) in stream. On
// success it appends the matching IDs to out (exactly what Query would
// return at the pinned version) and reports true. It reports false — with
// out unchanged — only when a touched slice still needs refinement or the
// structure moved mid-walk; concurrent appends and deletes never cause a
// bail. On a converged index the call is allocation-free when out has
// capacity.
func (ix *Index) QueryShared(q geom.Box, out []int32) ([]int32, bool) {
	start := len(out)
	v := ix.live.Load()
	e := ix.epoch.Load()
	if v.table.Len() > 0 && !q.IsEmpty() {
		var ok bool
		out, ok = ix.queryListVisible(q, ix.root, 0, v.deleted, out, ix.sampleHeat())
		if !ok || ix.epoch.Load() != e {
			return out[:start], false
		}
	}
	// The version's pending objects are unindexed until Flush; scanning
	// them linearly is read-only, so the shared path serves them too.
	if len(v.pending) > 0 && !q.IsEmpty() {
		for i := range v.pending {
			if v.pending[i].Intersects(q) {
				if _, dead := v.deleted[v.pending[i].ID]; !dead {
					out = append(out, v.pending[i].ID)
				}
			}
		}
	}
	// Honors DisableStats like every other counter — and keeps the one
	// shared cache line off the hot path when instrumentation is off.
	if !ix.noStats {
		ix.sharedQueries.Add(1)
	}
	return out, true
}

// queryAtVersion answers q against an arbitrary pinned version's view — the
// harness entry point for auditing that a pinned read sees exactly the
// writes published at or before its pin. For a current-generation version
// it reuses the live walk; for a version whose table was superseded by a
// Flush it walks the frozen generation the version captured. Same locking
// contract as QueryShared.
func (ix *Index) queryAtVersion(v *Version, q geom.Box, out []int32) ([]int32, bool) {
	root := v.root
	if v.table.Len() > 0 && !q.IsEmpty() && root != nil {
		var ok bool
		out, ok = ix.queryTableVisible(v.table, q, root, 0, v.deleted, out)
		if !ok {
			return out, false
		}
	}
	if len(v.pending) > 0 && !q.IsEmpty() {
		for i := range v.pending {
			if v.pending[i].Intersects(q) {
				if _, dead := v.deleted[v.pending[i].ID]; !dead {
					out = append(out, v.pending[i].ID)
				}
			}
		}
	}
	return out, true
}

// queryListVisible is the read-only mirror of queryList with the version's
// tombstone filter fused into the bottom-level scan (colstore's
// ScanIntersectVisible appends surviving IDs directly — no position
// translation pass). Any slice the exclusive path would have to touch —
// finalize, give a child, or crack — aborts the walk instead. heat is
// threaded as a parameter (not an Index field) because any number of
// shared walks run concurrently; the only mutation a sampled walk performs
// is the atomic touch counter, which is still "read-only" structurally.
func (ix *Index) queryListVisible(q geom.Box, list *sliceList, dim int, del map[int32]struct{}, out []int32, heat bool) ([]int32, bool) {
	fastPath := ix.cfg.Assign == AssignLower && !math.IsInf(list.maxExt, 1)
	var i int
	if fastPath {
		i = list.lowerBound(q.Min[dim]-list.maxExt, dim)
	}
	for ; i < len(list.slices); i++ {
		s := list.slices[i]
		if fastPath && s.box.Min[dim] > q.Max[dim] {
			break
		}
		if !s.box.Intersects(q) {
			continue
		}
		if !s.refined {
			return out, false // needs finalization or cracking: exclusive work
		}
		s.touchHeat(heat)
		if dim == geom.Dims-1 {
			out = ix.data.ScanIntersectVisible(s.lo, s.hi, q, del, out)
			continue
		}
		if s.children == nil {
			return out, false // lazy child creation is exclusive work
		}
		var ok bool
		out, ok = ix.queryListVisible(q, s.children, dim+1, del, out, heat)
		if !ok {
			return out, false
		}
	}
	return out, true
}

// queryTableVisible is queryListVisible against an explicit (possibly
// superseded) table — the frozen-generation walk behind queryAtVersion and
// SaveVersion consistency checks. It records no heat.
func (ix *Index) queryTableVisible(t tableLike, q geom.Box, list *sliceList, dim int, del map[int32]struct{}, out []int32) ([]int32, bool) {
	fastPath := ix.cfg.Assign == AssignLower && !math.IsInf(list.maxExt, 1)
	var i int
	if fastPath {
		i = list.lowerBound(q.Min[dim]-list.maxExt, dim)
	}
	for ; i < len(list.slices); i++ {
		s := list.slices[i]
		if fastPath && s.box.Min[dim] > q.Max[dim] {
			break
		}
		if !s.box.Intersects(q) {
			continue
		}
		if !s.refined {
			return out, false
		}
		if dim == geom.Dims-1 {
			out = t.ScanIntersectVisible(s.lo, s.hi, q, del, out)
			continue
		}
		if s.children == nil {
			return out, false
		}
		var ok bool
		out, ok = ix.queryTableVisible(t, q, s.children, dim+1, del, out)
		if !ok {
			return out, false
		}
	}
	return out, true
}

// tableLike is the slice of the colstore API the frozen-generation walk
// needs; it exists so the walk is explicit about touching only v.table.
type tableLike interface {
	ScanIntersectVisible(lo, hi int, q geom.Box, dead map[int32]struct{}, out []int32) []int32
}

// queryListShared is the position-collecting read-only walk (no tombstone
// filtering — callers that need the raw lane positions, like the KNN
// ranking and the shared delete locator, post-filter by ID).
func (ix *Index) queryListShared(q geom.Box, list *sliceList, dim int, out []int32, heat bool) ([]int32, bool) {
	fastPath := ix.cfg.Assign == AssignLower && !math.IsInf(list.maxExt, 1)
	var i int
	if fastPath {
		i = list.lowerBound(q.Min[dim]-list.maxExt, dim)
	}
	for ; i < len(list.slices); i++ {
		s := list.slices[i]
		if fastPath && s.box.Min[dim] > q.Max[dim] {
			break
		}
		if !s.box.Intersects(q) {
			continue
		}
		if !s.refined {
			return out, false // needs finalization or cracking: exclusive work
		}
		s.touchHeat(heat)
		if dim == geom.Dims-1 {
			out = ix.data.ScanIntersect(s.lo, s.hi, q, out)
			continue
		}
		if s.children == nil {
			return out, false // lazy child creation is exclusive work
		}
		var ok bool
		out, ok = ix.queryListShared(q, s.children, dim+1, out, heat)
		if !ok {
			return out, false
		}
	}
	return out, true
}

// CountShared counts the objects intersecting q on the shared read path,
// reporting false when the walk would need exclusive work. The count walk
// never materializes positions — tombstones are filtered by the fused
// colstore count kernel — so it is allocation-free regardless of result
// cardinality or how many deletes are in flight.
func (ix *Index) CountShared(q geom.Box) (int, bool) {
	v := ix.live.Load()
	e := ix.epoch.Load()
	n := 0
	if v.table.Len() > 0 && !q.IsEmpty() {
		var ok bool
		n, ok = ix.countListShared(q, ix.root, 0, v.deleted, ix.sampleHeat())
		if !ok || ix.epoch.Load() != e {
			return 0, false
		}
	}
	if !q.IsEmpty() {
		for i := range v.pending {
			if v.pending[i].Intersects(q) {
				if _, dead := v.deleted[v.pending[i].ID]; !dead {
					n++
				}
			}
		}
	}
	if !ix.noStats {
		ix.sharedQueries.Add(1)
	}
	return n, true
}

// countListShared mirrors queryListVisible but only counts matches.
func (ix *Index) countListShared(q geom.Box, list *sliceList, dim int, del map[int32]struct{}, heat bool) (int, bool) {
	fastPath := ix.cfg.Assign == AssignLower && !math.IsInf(list.maxExt, 1)
	var i int
	if fastPath {
		i = list.lowerBound(q.Min[dim]-list.maxExt, dim)
	}
	n := 0
	for ; i < len(list.slices); i++ {
		s := list.slices[i]
		if fastPath && s.box.Min[dim] > q.Max[dim] {
			break
		}
		if !s.box.Intersects(q) {
			continue
		}
		if !s.refined {
			return 0, false
		}
		s.touchHeat(heat)
		if dim == geom.Dims-1 {
			n += ix.data.CountIntersectVisible(s.lo, s.hi, q, del)
			continue
		}
		if s.children == nil {
			return 0, false
		}
		c, ok := ix.countListShared(q, s.children, dim+1, del, heat)
		if !ok {
			return 0, false
		}
		n += c
	}
	return n, true
}
