package shard

import (
	"context"
	"errors"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/telemetry"
)

// bomb is a minimal sub-index whose operations can be armed to panic,
// standing in for a corrupted structure. It satisfies Queryable, Updatable
// and NearestNeighborer with linear scans — slow but obviously correct, so
// the tests measure the engine's isolation behaviour, not the index.
type bomb struct {
	objs                                                []geom.Object
	armQuery, armAppend, armDelete, armKNN, armComplete bool
	completed                                           bool
}

func (b *bomb) Len() int { return len(b.objs) }

func (b *bomb) Query(q geom.Box, out []int32) []int32 {
	if b.armQuery {
		panic("bomb: query")
	}
	for _, o := range b.objs {
		if o.Box.Intersects(q) {
			out = append(out, o.ID)
		}
	}
	return out
}

func (b *bomb) Append(objs ...geom.Object) {
	if b.armAppend {
		panic("bomb: append")
	}
	b.objs = append(b.objs, objs...)
}

func (b *bomb) Delete(id int32, hint geom.Box) bool {
	if b.armDelete {
		panic("bomb: delete")
	}
	for i, o := range b.objs {
		if o.ID == id {
			b.objs = append(b.objs[:i], b.objs[i+1:]...)
			return true
		}
	}
	return false
}

func (b *bomb) Flush()       {}
func (b *bomb) Pending() int { return 0 }

func (b *bomb) Complete() {
	if b.armComplete {
		panic("bomb: complete")
	}
	b.completed = true
}

func (b *bomb) KNN(p geom.Point, k int) []core.Neighbor {
	if b.armKNN {
		panic("bomb: knn")
	}
	ns := make([]core.Neighbor, 0, len(b.objs))
	for _, o := range b.objs {
		ns = append(ns, core.Neighbor{ID: o.ID, DistSq: o.Box.MinDistSq(p)})
	}
	sort.Slice(ns, func(i, j int) bool {
		if ns[i].DistSq != ns[j].DistSq {
			return ns[i].DistSq < ns[j].DistSq
		}
		return ns[i].ID < ns[j].ID
	})
	if len(ns) > k {
		ns = ns[:k]
	}
	return ns
}

// bombObjects builds two well-separated clusters so a 2-shard STR partition
// puts IDs 1..4 in one shard and 11..14 in the other.
func bombObjects() []geom.Object {
	var objs []geom.Object
	for i := 0; i < 4; i++ {
		objs = append(objs, geom.Object{Box: geom.BoxAt(geom.Point{float64(i), 0, 0}, 0.4), ID: int32(1 + i)})
		objs = append(objs, geom.Object{Box: geom.BoxAt(geom.Point{float64(100 + i), 0, 0}, 0.4), ID: int32(11 + i)})
	}
	return objs
}

// bombIndex builds a 2-shard engine over bombObjects with bomb sub-indexes
// and returns the engine plus the constructed bombs in build order.
func bombIndex(t *testing.T) (*Index, []*bomb) {
	t.Helper()
	var bombs []*bomb
	ix := New(bombObjects(), Config{
		Shards: 2,
		New: func(data []geom.Object) Queryable {
			b := &bomb{objs: append([]geom.Object(nil), data...)}
			bombs = append(bombs, b)
			return b
		},
	})
	if len(bombs) != 2 || ix.NumShards() != 2 {
		t.Fatalf("want 2 bomb shards, got %d shards, %d bombs", ix.NumShards(), len(bombs))
	}
	return ix, bombs
}

// bombFor finds the bomb holding the given ID.
func bombFor(t *testing.T, bombs []*bomb, id int32) *bomb {
	t.Helper()
	for _, b := range bombs {
		for _, o := range b.objs {
			if o.ID == id {
				return b
			}
		}
	}
	t.Fatalf("no bomb holds id %d", id)
	return nil
}

func idSet(ids []int32) map[int32]bool {
	m := make(map[int32]bool, len(ids))
	for _, id := range ids {
		m[id] = true
	}
	return m
}

// TestCompletePanicQuarantinesShard checks that Complete, which refines
// every shard on its own goroutine, quarantines a sub-index that panics
// instead of ending the process, and still completes the healthy shards.
func TestCompletePanicQuarantinesShard(t *testing.T) {
	ix, bombs := bombIndex(t)
	bad, good := bombFor(t, bombs, 1), bombFor(t, bombs, 11)
	bad.armComplete = true
	ix.Complete()
	if ix.Quarantined() != 1 {
		t.Fatalf("Quarantined = %d, want 1", ix.Quarantined())
	}
	if !good.completed || bad.completed {
		t.Fatalf("completed: healthy %v, panicking %v; want true, false", good.completed, bad.completed)
	}
	got := idSet(ix.Query(geom.BoxAt(geom.Point{50, 0, 0}, 1000), nil))
	if len(got) != 4 || !got[11] || got[1] {
		t.Fatalf("after quarantine got %v, want only the healthy shard's IDs 11..14", got)
	}
}

func TestQueryPanicQuarantinesShard(t *testing.T) {
	ix, bombs := bombIndex(t)
	all := geom.BoxAt(geom.Point{50, 0, 0}, 1000)

	bad := bombFor(t, bombs, 1)
	bad.armQuery = true
	got := idSet(ix.Query(all, nil))
	if got[1] || got[2] {
		t.Fatalf("results include objects from the panicking shard: %v", got)
	}
	for _, id := range []int32{11, 12, 13, 14} {
		if !got[id] {
			t.Fatalf("healthy shard's object %d missing: %v", id, got)
		}
	}
	if q := ix.Quarantined(); q != 1 {
		t.Fatalf("Quarantined() = %d, want 1", q)
	}
	if st := ix.Stats(); st.Quarantined != 1 {
		t.Fatalf("Stats().Quarantined = %d, want 1", st.Quarantined)
	}

	// Disarming does not heal: quarantine is sticky until rebuild.
	bad.armQuery = false
	if got := idSet(ix.Query(all, nil)); got[1] {
		t.Fatalf("quarantined shard served a query after disarm: %v", got)
	}
	if n := ix.Len(); n != 4 {
		t.Fatalf("Len() = %d, want 4 (quarantined shard excluded)", n)
	}
}

func TestSnapshotRefusedWhenQuarantined(t *testing.T) {
	ix, bombs := bombIndex(t)
	bombFor(t, bombs, 1).armQuery = true
	ix.Query(geom.BoxAt(geom.Point{0, 0, 0}, 10), nil) // trip the quarantine
	err := ix.Snapshot(t.TempDir())
	if !errors.Is(err, ErrQuarantined) {
		t.Fatalf("Snapshot with quarantined shard: %v, want ErrQuarantined", err)
	}
}

func TestInsertRoutesAroundQuarantinedShard(t *testing.T) {
	ix, bombs := bombIndex(t)
	bad := bombFor(t, bombs, 1)
	bad.armQuery = true
	ix.Query(geom.BoxAt(geom.Point{0, 0, 0}, 10), nil)
	bad.armQuery = false

	// The object's center lies in the quarantined shard's tile; routing must
	// fall through to the next-nearest healthy shard and still serve it.
	obj := geom.Object{Box: geom.BoxAt(geom.Point{1, 0, 0}, 0.4), ID: 99}
	if err := ix.Insert(obj); err != nil {
		t.Fatalf("Insert around quarantined shard: %v", err)
	}
	if got := idSet(ix.Query(obj.Box, nil)); !got[99] {
		t.Fatalf("rerouted insert invisible to queries: %v", got)
	}
}

func TestAppendPanicReturnsErrQuarantined(t *testing.T) {
	ix, bombs := bombIndex(t)
	bombFor(t, bombs, 1).armAppend = true
	err := ix.Insert(geom.Object{Box: geom.BoxAt(geom.Point{1, 0, 0}, 0.4), ID: 99})
	if !errors.Is(err, ErrQuarantined) {
		t.Fatalf("Insert into panicking shard: %v, want ErrQuarantined", err)
	}
	if q := ix.Quarantined(); q != 1 {
		t.Fatalf("Quarantined() = %d, want 1", q)
	}
}

func TestDeletePanicProbesRemainingShards(t *testing.T) {
	ix, bombs := bombIndex(t)
	bombFor(t, bombs, 1).armDelete = true
	// Hint spans both shards; the panicking one is probed first (shard
	// order), quarantines itself, and the delete still lands in the other.
	found, err := ix.Delete(11, geom.BoxAt(geom.Point{50, 0, 0}, 1000))
	if err != nil || !found {
		t.Fatalf("Delete across panicking shard: found=%v err=%v", found, err)
	}
	if q := ix.Quarantined(); q != 1 {
		t.Fatalf("Quarantined() = %d, want 1", q)
	}
}

func TestKNNSkipsPanickingShard(t *testing.T) {
	ix, bombs := bombIndex(t)
	bombFor(t, bombs, 1).armKNN = true
	// Query point sits in the panicking shard's cluster: that shard probes
	// first, panics, and KNN must still answer from the healthy one.
	got, err := ix.KNN(geom.Point{0, 0, 0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != 11 || got[1].ID != 12 {
		t.Fatalf("KNN after panic = %+v, want IDs 11, 12", got)
	}
	if q := ix.Quarantined(); q != 1 {
		t.Fatalf("Quarantined() = %d, want 1", q)
	}
}

func TestPanicMetrics(t *testing.T) {
	ix, bombs := bombIndex(t)
	reg := telemetry.NewRegistry()
	ix.Instrument(reg)
	bombFor(t, bombs, 1).armQuery = true
	ix.Query(geom.BoxAt(geom.Point{0, 0, 0}, 10), nil)

	if v := ix.mPanics.Value(); v != 1 {
		t.Fatalf("quasii_shard_panics_total = %d, want 1", v)
	}
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "quasii_shard_quarantined_shards 1") {
		t.Fatalf("scrape missing quarantined gauge = 1:\n%s", sb.String())
	}
}

// TestQueryCtx covers the context-aware entry points: a non-cancellable
// context matches the plain path exactly, a pre-cancelled one fails fast,
// and cancellation surfaces from batch and KNN variants too.
func TestQueryCtx(t *testing.T) {
	ix, _ := bombIndex(t)
	all := geom.BoxAt(geom.Point{50, 0, 0}, 1000)

	plain := idSet(ix.Query(all, nil))
	got, err := ix.QueryCtx(context.Background(), all, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g := idSet(got); len(g) != len(plain) {
		t.Fatalf("QueryCtx(Background) = %v, plain = %v", g, plain)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ix.QueryCtx(cancelled, all, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("QueryCtx(cancelled) err = %v, want context.Canceled", err)
	}
	if _, err := ix.QueryBatchCtx(cancelled, []geom.Box{all, all}); !errors.Is(err, context.Canceled) {
		t.Fatalf("QueryBatchCtx(cancelled) err = %v, want context.Canceled", err)
	}
	if _, err := ix.KNNCtx(cancelled, geom.Point{0, 0, 0}, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("KNNCtx(cancelled) err = %v, want context.Canceled", err)
	}

	res, err := ix.QueryBatchCtx(context.Background(), []geom.Box{all})
	if err != nil || len(res) != 1 || len(res[0]) != 8 {
		t.Fatalf("QueryBatchCtx(Background): res=%v err=%v", res, err)
	}
	nb, err := ix.KNNCtx(context.Background(), geom.Point{0, 0, 0}, 1)
	if err != nil || len(nb) != 1 || nb[0].ID != 1 {
		t.Fatalf("KNNCtx(Background): %+v err=%v", nb, err)
	}
}

// TestQueryCtxDeadlineMidFanout drives the real cancellable fan-out path
// (not the delegating fast path) and checks a cancel observed mid-merge
// still returns every pooled buffer and reports the error.
func TestQueryCtxMidFlight(t *testing.T) {
	ix, _ := bombIndex(t)
	all := geom.BoxAt(geom.Point{50, 0, 0}, 1000)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Not yet cancelled: the cancellable path must produce full results.
	got, err := ix.QueryTracedCtx(ctx, all, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 8 {
		t.Fatalf("cancellable path returned %d IDs, want 8", len(got))
	}
}
