// Extensions beyond the paper's core algorithm, each motivated by its text:
//
//   - stochastic refinement (Config.Stochastic): the paper builds on database
//     cracking and cites stochastic cracking (Halim et al., VLDB 2012), which
//     fixes cracking's pathological behaviour under sequential workloads by
//     adding random cuts. The same idea applies per dimension here.
//   - Complete: finish refinement eagerly (e.g. in idle time), turning the
//     adaptive index into its fully converged form.
//   - Append/Delete/Flush: accept updates after construction; the paper
//     assumes a static setting (Sec. 2), so arrivals are buffered, deletions
//     tombstoned, and both merged into every read's answer. Reads never
//     fold them into the lanes: only Flush does, called explicitly or
//     after enough writes (the server's FlushEvery).

package core

import (
	"math"

	"repro/internal/geom"
)

// stochasticCut returns a random cut coordinate within (lo, hi) drawn from
// the index's deterministic RNG, used to pre-split big slices so worst-case
// (sequential) workloads cannot keep every query on an unrefined tail.
func (ix *Index) stochasticCut(lo, hi float64) float64 {
	c := lo + ix.rng.Float64()*(hi-lo)
	if c <= lo || c >= hi {
		c = (lo + hi) / 2
	}
	return c
}

// Complete finishes all outstanding refinement: every slice on every level
// is split down to its τ threshold and every refined slice receives its
// exact bounding box, exactly as if enough queries had touched the whole
// universe. Afterwards queries perform no further cracking. Typical use is
// converting the adaptive index into its converged form during idle time.
func (ix *Index) Complete() {
	if ix.root == nil {
		return
	}
	ix.completeList(ix.root, 0)
}

func (ix *Index) completeList(list *sliceList, dim int) {
	var out []*slice
	for _, s := range list.slices {
		out = append(out, ix.completeSlice(s, dim)...)
	}
	list.slices = out
	list.maxExt = 0
	for _, s := range out {
		list.noteExtent(s, dim)
		if dim < geom.Dims-1 {
			if s.children == nil {
				ix.createDefaultChild(s)
			}
			ix.completeList(s.children, dim+1)
		}
	}
}

// completeSlice splits s at midpoints until every fragment meets τ,
// finalizing all fragments. It returns the replacement slices in lo order.
func (ix *Index) completeSlice(s *slice, dim int) []*slice {
	if s.size() <= ix.tau[dim] {
		ix.finalize(s)
		return []*slice{s}
	}
	sMin, sMax := ix.lowerRange(s, dim)
	if sMax <= sMin {
		ix.finalize(s)
		return []*slice{s}
	}
	halves := ix.crackTwo(s, dim, artificialCut(sMin, sMax))
	out := make([]*slice, 0, 2)
	for _, h := range halves {
		out = append(out, ix.completeSlice(h, dim)...)
	}
	return out
}

// Append registers new objects with the index. The paper assumes all data is
// available up front (static setting); arrivals are therefore buffered and
// scanned linearly by every query until Flush folds them into the indexed
// lanes. IDs need not be unique, but results are reported by ID.
//
// Append publishes a new version (see version.go) and is safe under the
// shard's shared lock, concurrently with readers and other writers.
func (ix *Index) Append(objs ...geom.Object) {
	ix.AppendVersioned(objs...)
}

// Pending returns the number of appended objects not yet folded into the
// indexed lanes (tombstoned-while-pending entries included until Flush).
func (ix *Index) Pending() int { return len(ix.live.Load().pending) }

// Delete removes the object with the given ID, using hint (typically the
// object's own box) to locate it. Deletion is logical — a tombstone filters
// the object out of all results immediately — and physical on the next
// Flush, which compacts the lanes and restarts refinement. It reports
// whether a visible object was found; an ID already tombstoned reads as
// absent. IDs are assumed unique for deletion; with duplicates every object
// carrying the ID disappears from results.
//
// Delete may refine the index around hint, so it requires the exclusive
// lock; DeleteShared is the escalation-free variant for converged regions.
func (ix *Index) Delete(id int32, hint geom.Box) bool {
	// A pending object is tombstoned exactly like an indexed one: the
	// version's pending slice is immutable, and Flush drops tombstoned
	// entries instead of folding them in. Locating an indexed one refines
	// the index around hint as a side effect.
	_, found, _ := ix.deleteVia(crackingProbe, id, hint)
	return found
}

// Deleted returns the number of tombstoned objects awaiting compaction.
func (ix *Index) Deleted() int { return len(ix.live.Load().deleted) }

// Flush folds all appended objects into the indexed lanes and compacts away
// tombstoned ones. The slice hierarchy restarts from a single unrefined
// slice — subsequent queries rebuild it incrementally, which is the
// adaptive-indexing answer to bulk updates (refining the merge is future
// work the paper leaves open).
//
// Flush requires the exclusive lock. If any version in the chain is pinned
// (a checkpoint mid-write), the lanes are cloned first so the pinned view
// keeps its frozen generation; otherwise compaction is in place as before.
func (ix *Index) Flush() {
	cur := ix.live.Load()
	if len(cur.pending) == 0 && len(cur.deleted) == 0 {
		return
	}
	ix.epoch.Add(1)
	if ix.chainPinned() {
		// A pinned version references the current lanes; rebuilding must
		// not touch them. The clone becomes the live table, the pinned
		// version keeps the superseded one (its root and tau fields were
		// captured at publish and stay consistent with it).
		ix.data = ix.data.Clone()
	}
	if len(cur.deleted) > 0 {
		ix.data.Compact(cur.deleted)
	}
	if len(cur.pending) > 0 {
		live := cur.pending
		if len(cur.deleted) > 0 {
			// Drop tombstoned-while-pending objects instead of resurrecting
			// them. Copy — cur.pending's backing array is shared COW state.
			live = make([]geom.Object, 0, len(cur.pending))
			for i := range cur.pending {
				if _, dead := cur.deleted[cur.pending[i].ID]; !dead {
					live = append(live, cur.pending[i])
				}
			}
		}
		ix.data.AppendObjects(live)
	}
	ix.computeTaus()
	initial := ix.newSlice(0, 0, ix.data.Len(), geom.UniverseBox())
	ix.root = &sliceList{slices: []*slice{initial}, maxExt: math.Inf(1)}
	if !ix.noStats {
		ix.stats.SlicesCreated++
		ix.stats.Flushes++
	}
	// Publish the fresh base version: no deltas, new table/root generation.
	ix.verMu.Lock()
	ix.publishLocked(&Version{
		seq:     ix.live.Load().seq + 1,
		maxExt:  cur.maxExt,
		dataMBB: cur.dataMBB,
		table:   ix.data,
		root:    ix.root,
		tau:     ix.tau,
	})
	ix.verMu.Unlock()
}
