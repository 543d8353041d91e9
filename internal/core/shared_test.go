package core

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/scan"
	"repro/internal/workload"
)

// TestEpochMonotonic pins the crack-epoch contract: the epoch never
// decreases, moves across every kind of structural mutation, and stands
// still on a converged index — the property the optimistic shared read
// path's validation depends on.
func TestEpochMonotonic(t *testing.T) {
	data := dataset.Uniform(5000, 1)
	ix := New(dataset.Clone(data), Config{})
	queries := workload.Uniform(dataset.Universe(), 64, 1e-3, 2)

	last := ix.Epoch()
	check := func(op string) {
		e := ix.Epoch()
		if e < last {
			t.Fatalf("epoch decreased after %s: %d -> %d", op, last, e)
		}
		last = e
	}

	// A cracking query must move the epoch.
	ix.Query(queries[0], nil)
	if ix.Epoch() == 0 {
		t.Fatal("cracking query did not move the epoch")
	}
	check("first query")

	for _, q := range queries {
		ix.Query(q, nil)
		check("query")
	}
	// Data changes publish versions instead of moving the crack epoch:
	// DataVersion must advance, the epoch must stand still, so shared
	// readers are never invalidated by a write burst.
	dv := ix.DataVersion()
	ix.Append(geom.Object{Box: geom.BoxAt(geom.Point{1, 2, 3}, 1), ID: 99_999})
	if ix.Epoch() != last {
		t.Fatal("Append moved the crack epoch (data changes must not)")
	}
	if ix.DataVersion() != dv+1 {
		t.Fatalf("Append moved DataVersion %d -> %d, want +1", dv, ix.DataVersion())
	}
	check("append")
	if !ix.Delete(99_999, geom.BoxAt(geom.Point{1, 2, 3}, 1)) {
		t.Fatal("Delete missed the appended object")
	}
	if ix.DataVersion() != dv+2 {
		t.Fatalf("Delete moved DataVersion to %d, want %d", ix.DataVersion(), dv+2)
	}
	check("delete")
	ix.Flush()
	check("flush")
	ix.Complete()
	check("complete")

	// Converged: repeated queries must leave the epoch untouched, so shared
	// readers never invalidate each other.
	e := ix.Epoch()
	for _, q := range queries {
		ix.Query(q, nil)
	}
	if ix.Epoch() != e {
		t.Fatalf("queries on a converged index moved the epoch: %d -> %d", e, ix.Epoch())
	}
}

// TestQuerySharedMatchesExclusive verifies the shared read path returns
// exactly what Query would, across converged, pending, and tombstoned
// states — and that it bails (rather than answering wrong) on a cold index.
func TestQuerySharedMatchesExclusive(t *testing.T) {
	data := dataset.Uniform(8000, 3)
	ix := New(dataset.Clone(data), Config{})
	queries := workload.Uniform(dataset.Universe(), 128, 1e-3, 4)

	// Converged's contract: no pending rows, and a universe query stays on
	// the shared path.
	checkConverged := func(state string) {
		t.Helper()
		_, ok := ix.QueryShared(geom.UniverseBox(), nil)
		if want := ix.Pending() == 0 && ok; ix.Converged() != want {
			t.Fatalf("%s: Converged() = %v, want %v", state, !want, want)
		}
	}
	checkConverged("cold")

	// Cold index: any query that touches data must fall back.
	if _, ok := ix.QueryShared(queries[0], nil); ok {
		t.Fatal("shared path succeeded on a cold index")
	}
	for _, q := range queries[:8] {
		ix.Query(q, nil)
	}
	checkConverged("partly refined")

	ix.Complete()
	if !ix.Converged() {
		t.Fatal("Complete left the index unconverged")
	}
	checkConverged("completed")
	sc := scan.New(dataset.Clone(data))
	for i, q := range queries {
		got, ok := ix.QueryShared(q, nil)
		if !ok {
			t.Fatalf("query %d: shared path bailed on a converged index", i)
		}
		want := sc.Query(q, nil)
		assertSameIDs(t, got, want)
	}

	// Pending objects are served read-only by the shared path.
	obj := geom.Object{Box: geom.BoxAt(queries[0].Center(), 1), ID: 500_000}
	ix.Append(obj)
	got, ok := ix.QueryShared(obj.Box, nil)
	if !ok {
		t.Fatal("shared path bailed with pending objects")
	}
	if !containsID32(got, obj.ID) {
		t.Fatal("shared path missed a pending object")
	}
	checkConverged("appended")

	// Tombstones filter shared results immediately.
	if !ix.Delete(data[0].ID, data[0].Box) {
		t.Fatal("Delete missed an indexed object")
	}
	got, ok = ix.QueryShared(data[0].Box, nil)
	if !ok {
		t.Fatal("shared path bailed with tombstones")
	}
	if containsID32(got, data[0].ID) {
		t.Fatal("shared path returned a tombstoned object")
	}

	ix.Flush()
	checkConverged("flushed")
	ix.Complete()
	checkConverged("flushed and completed")
}

// TestSharedReadsDoNotAllocate pins the shared path's allocation contract:
// on a completed index carrying pending inserts and tombstones, QueryShared
// with a pre-sized output buffer and CountShared allocate nothing.
func TestSharedReadsDoNotAllocate(t *testing.T) {
	ix := newDeltaIndex(50_000, 512, 79)
	if ix.Pending() == 0 || ix.Deleted() == 0 {
		t.Fatalf("fixture carries %d pending rows and %d tombstones, want both", ix.Pending(), ix.Deleted())
	}
	queries := workload.Uniform(dataset.Universe(), 64, 1e-4, 80)
	out := make([]int32, 0, 4096)
	avg := testing.AllocsPerRun(50, func() {
		for _, q := range queries {
			var ok bool
			if out, ok = ix.QueryShared(q, out[:0]); !ok {
				t.Fatal("QueryShared bailed on a completed index")
			}
			if _, ok = ix.CountShared(q); !ok {
				t.Fatal("CountShared bailed on a completed index")
			}
		}
	})
	if avg != 0 {
		t.Fatalf("shared reads allocate %.1f times per %d query+count pairs, want 0", avg, len(queries))
	}
}

// TestCountSharedMatchesCount pins Count's shared-walk fast path: exact on
// a converged index (with and without tombstones/pending) and refusing
// cleanly on a cold one.
func TestCountSharedMatchesCount(t *testing.T) {
	data := dataset.Uniform(6000, 5)
	ix := New(dataset.Clone(data), Config{})
	queries := workload.Uniform(dataset.Universe(), 64, 1e-3, 6)

	if _, ok := ix.CountShared(queries[0]); ok {
		t.Fatal("CountShared succeeded on a cold index")
	}
	ix.Complete()
	sc := scan.New(dataset.Clone(data))
	for i, q := range queries {
		n, ok := ix.CountShared(q)
		if !ok {
			t.Fatalf("query %d: CountShared bailed on a converged index", i)
		}
		if want := len(sc.Query(q, nil)); n != want {
			t.Fatalf("query %d: CountShared = %d, scan = %d", i, n, want)
		}
		if got := ix.Count(q); got != n {
			t.Fatalf("query %d: Count = %d disagrees with CountShared = %d", i, got, n)
		}
	}
	// Tombstoned objects disappear from counts.
	before, _ := ix.CountShared(data[0].Box)
	ix.Delete(data[0].ID, data[0].Box)
	after, ok := ix.CountShared(data[0].Box)
	if !ok {
		t.Fatal("CountShared bailed with tombstones")
	}
	if after != before-1 {
		t.Fatalf("CountShared with tombstone = %d, want %d", after, before-1)
	}
}

// TestKNNSharedMatchesKNN verifies shared KNN equals exclusive KNN on a
// converged index, and bails whenever exclusive work (Flush) would be
// needed.
func TestKNNSharedMatchesKNN(t *testing.T) {
	data := dataset.Uniform(4000, 7)
	ix := New(dataset.Clone(data), Config{})
	ix.Complete()
	probes := workload.Uniform(dataset.Universe(), 32, 1e-4, 8)
	for i, q := range probes {
		p := q.Center()
		got, ok := ix.KNNShared(p, 10)
		if !ok {
			t.Fatalf("probe %d: KNNShared bailed on a converged index", i)
		}
		want := ix.KNN(p, 10)
		if len(got) != len(want) {
			t.Fatalf("probe %d: KNNShared returned %d neighbors, KNN %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("probe %d neighbor %d: shared %+v, exclusive %+v", i, j, got[j], want[j])
			}
		}
	}
	// Pending objects no longer evict KNN readers: the shared path merges
	// them into the candidate ranking, so the freshly appended object at
	// the probe point must come back first.
	ix.Append(geom.Object{Box: geom.BoxAt(geom.Point{5, 5, 5}, 1), ID: 600_000})
	nn, ok := ix.KNNShared(geom.Point{5, 5, 5}, 3)
	if !ok {
		t.Fatal("KNNShared bailed on pending objects (MVCC path must serve them)")
	}
	if len(nn) != 3 || nn[0].ID != 600_000 || nn[0].DistSq != 0 {
		t.Fatalf("KNNShared with pending: got %+v, want appended object first", nn)
	}
	// And a tombstone must hide the object again without a bail.
	if !ix.Delete(600_000, geom.BoxAt(geom.Point{5, 5, 5}, 1)) {
		t.Fatal("Delete missed the appended object")
	}
	nn, ok = ix.KNNShared(geom.Point{5, 5, 5}, 3)
	if !ok {
		t.Fatal("KNNShared bailed on tombstones")
	}
	for _, n := range nn {
		if n.ID == 600_000 {
			t.Fatal("KNNShared returned a tombstoned object")
		}
	}
}

// TestQueryBudgeted verifies budgeted queries stay exact at every budget —
// including zero — and that repeated budgeted queries still converge the
// index, with invariants intact throughout.
func TestQueryBudgeted(t *testing.T) {
	data := dataset.Uniform(10_000, 9)
	queries := workload.Uniform(dataset.Universe(), 96, 1e-3, 10)
	sc := scan.New(dataset.Clone(data))
	for _, budget := range []int{0, 1, 4, 64, -1} {
		ix := New(dataset.Clone(data), Config{})
		for i, q := range queries {
			got := ix.QueryBudgeted(q, nil, budget)
			assertSameIDs(t, got, sc.Query(q, nil))
			if err := ix.CheckInvariants(); err != nil {
				t.Fatalf("budget %d, query %d: invariants: %v", budget, i, err)
			}
		}
	}
	// A positive budget must still make progress: replaying one query often
	// enough converges its region, flipping it onto the shared path.
	ix := New(dataset.Clone(data), Config{})
	q := queries[0]
	for i := 0; i < 10_000; i++ {
		ix.QueryBudgeted(q, nil, 4)
		if _, ok := ix.QueryShared(q, nil); ok {
			return
		}
	}
	t.Fatal("10k budgeted replays of one query never converged its region")
}

func assertSameIDs(t *testing.T, got, want []int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	seen := make(map[int32]int, len(got))
	for _, id := range got {
		seen[id]++
	}
	for _, id := range want {
		if seen[id] == 0 {
			t.Fatalf("missing ID %d", id)
		}
		seen[id]--
	}
}

func containsID32(ids []int32, id int32) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}
