// The shared read path. QUASII converges toward R-tree-like behaviour
// precisely because, after enough queries, most slices are final and never
// cracked again — so the steady state the paper celebrates is a read-mostly
// structure that should be queried under shared access, not behind an
// exclusive lock.
//
// Every read-only entry point runs the same hierarchy walk, walkRefined:
// Algorithm 1's sibling binary search, box test and descent over a
// version's own root and table, without finalization, child creation or
// cracking. It hands each refined bottom-level slice that intersects q to
// a leaf kernel and reports false at the first slice that still needs
// exclusive work (unrefined, or without children). The entry points differ
// only in that kernel:
//
//   - QueryShared / queryAtVersion: ScanIntersectVisible, appending the IDs
//     that survive the version's tombstones, plus its visible pending rows;
//   - CountShared: CountIntersectVisible, the same filter without output;
//   - the kNN sharedProbe and DeleteShared's locator: ScanIntersect,
//     collecting raw lane positions that the caller filters by ID;
//   - Converged: no kernel — it asks only whether the universe walk bails.
//
// A query whose touched region is fully refined is therefore answered in
// place against the pinned version's view — lanes plus visible deltas —
// regardless of how many appends and deletes race with it. A bail sends
// the caller to the exclusive path (Query / QueryBudgeted), whose cracking
// walk alone mutates the hierarchy and bumps the crack epoch.
//
// # Safety contract
//
// Any number of shared-path calls may run concurrently with each other and
// with version-publishing writers (Append, Delete via DeleteShared). They
// must not run concurrently with the exclusive path — cracking queries and
// Flush — which the sharded engine guarantees with a per-shard RWMutex.
// The crack epoch is the belt to those suspenders: every live walk records
// the epoch first and validates it after, so even a misuse race (a
// structural writer sneaking in between the caller's decision and the walk)
// is detected and turned into a fallback instead of a wrong answer. Data
// changes do not move the epoch, so a write burst cannot evict readers.

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
// refined down to the bottom level; an index with no lane rows qualifies
// trivially. It is a read-only full walk — O(slices) — intended for
// scheduling decisions, not hot loops.
func (ix *Index) Converged() bool {
	v := ix.live.Load()
	return len(v.pending) == 0 && ix.walkRefined(v, geom.UniverseBox(), false, func(int, int) {})
}

// QueryShared answers q on the shared read path: it pins the live version
// and answers from it with queryAtVersion, bracketed by the crack epoch. On
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
	out, ok := ix.queryAtVersion(v, q, ix.sampleHeat(), out)
	if !ok || ix.epoch.Load() != e {
		return out[:start], false
	}
	// Honors DisableStats like every other counter — and keeps the one
	// shared cache line off the hot path when instrumentation is off.
	if !ix.noStats {
		ix.sharedQueries.Add(1)
	}
	return out, true
}

// queryAtVersion appends to out the IDs of v's visible objects intersecting
// q: the lane rows the read-only walk reaches, minus v's tombstones, plus
// v's visible pending objects. It is the one ID-collecting read path —
// QueryShared runs it on the live version, the visibility harness on
// pinned ones, including a version whose table a Flush superseded (its
// frozen generation carries its own root). heat records sampled slice
// touches. On a bail out is returned unchanged. Same locking contract as
// QueryShared.
func (ix *Index) queryAtVersion(v *Version, q geom.Box, heat bool, out []int32) ([]int32, bool) {
	start := len(out)
	if !ix.walkRefined(v, q, heat, func(lo, hi int) {
		out = v.table.ScanIntersectVisible(lo, hi, q, v.deleted, out)
	}) {
		return out[:start], false
	}
	return v.appendVisiblePending(q, out), true
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
	if !ix.walkRefined(v, q, ix.sampleHeat(), func(lo, hi int) {
		n += v.table.CountIntersectVisible(lo, hi, q, v.deleted)
	}) || ix.epoch.Load() != e {
		return 0, false
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

// walkRefined is the read-only hierarchy walk: it walks v.root over
// v.table and calls leaf once per refined bottom-level slice [lo, hi) whose
// box intersects q. It reports false at the first intersecting slice that
// still needs exclusive work — finalization, cracking or lazy child
// creation — having called leaf for a prefix of the answer only. An empty
// table or box needs no walk. heat records a sampled touch on every slice
// the descent enters; it is a parameter, not an Index field, because any
// number of shared walks run concurrently (the atomic touch counter is the
// one write a walk performs).
func (ix *Index) walkRefined(v *Version, q geom.Box, heat bool, leaf func(lo, hi int)) bool {
	if v.table.Len() == 0 || q.IsEmpty() {
		return true
	}
	return ix.walkList(v.root, 0, q, heat, leaf)
}

// walkList is walkRefined over one sibling list at level dim — the
// read-only mirror of queryList.
func (ix *Index) walkList(list *sliceList, dim int, q geom.Box, heat bool, leaf func(lo, hi int)) bool {
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
			return false // needs finalization or cracking: exclusive work
		}
		s.touchHeat(heat)
		if dim == geom.Dims-1 {
			leaf(s.lo, s.hi)
			continue
		}
		// A missing child list means lazy child creation: exclusive work.
		if s.children == nil || !ix.walkList(s.children, dim+1, q, heat, leaf) {
			return false
		}
	}
	return true
}
