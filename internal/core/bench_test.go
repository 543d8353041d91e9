package core

// Microbenchmarks for the three hot kernels of the query path: the cracking
// partition pass, the bottom-level slice scan, and end-to-end queries on a
// fully converged index, on the exclusive (Query) and the shared
// (QueryShared) path. They exist so layout changes (AoS vs SoA) and
// allocation regressions are measurable in isolation; CI runs them as a
// smoke and BENCH_PR3.json records the before/after comparison.

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/workload"
)

// resetData restores the index's data lanes to the master ordering so every
// partition pass starts from the same (unsorted) state.
func (ix *Index) resetData(master []geom.Object) {
	ix.data.Reload(master)
}

// BenchmarkPartition measures one two-way crack pass over 1M objects —
// the kernel every query-driven refinement runs, dominated by the key scan,
// the element swaps, and the per-band bounds tracking.
func BenchmarkPartition(b *testing.B) {
	const n = 1 << 20
	master := dataset.Uniform(n, 42)
	ix := New(dataset.Clone(master), Config{})
	pivot := dataset.UniverseSide / 2
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ix.resetData(master)
		b.StartTimer()
		mid, _, _ := ix.partition(0, n, 0, pivot)
		if mid <= 0 || mid >= n {
			b.Fatalf("degenerate partition at %d", mid)
		}
	}
}

// BenchmarkScanSlice measures the bottom-level interval filter over a large
// contiguous range — the per-object intersection test every query pays in
// each leaf slice it overlaps.
func BenchmarkScanSlice(b *testing.B) {
	const n = 1 << 17
	data := dataset.Uniform(n, 43)
	ix := New(data, Config{})
	s := &slice{level: geom.Dims - 1, lo: 0, hi: n, box: geom.UniverseBox()}
	q := workload.Uniform(dataset.Universe(), 1, 0.01, 44)[0]
	var out []int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = ix.scanSlice(s, q, out[:0])
	}
	if len(out) == 0 {
		b.Fatal("query matched nothing")
	}
}

// BenchmarkQueryConverged measures steady-state queries against a fully
// refined index — the regime the serving layer lives in, where the R-tree
// comparison of the paper applies and allocations per query should be zero.
func BenchmarkQueryConverged(b *testing.B) {
	const n = 200_000
	data := dataset.Uniform(n, 45)
	ix := New(data, Config{})
	ix.Complete()
	queries := workload.Uniform(dataset.Universe(), 1024, 1e-4, 46)
	var out []int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = ix.Query(queries[i%len(queries)], out[:0])
	}
}

// BenchmarkQueryConvergedHeat is BenchmarkQueryConverged with access-heat
// tracking at its default sampling rate — the pair quantifies the cost of
// the introspection layer on the hot path (budget: within 3%, 0 allocs/op).
func BenchmarkQueryConvergedHeat(b *testing.B) {
	const n = 200_000
	data := dataset.Uniform(n, 45)
	ix := New(data, Config{HeatSampleEvery: DefaultHeatSampleEvery})
	ix.Complete()
	queries := workload.Uniform(dataset.Universe(), 1024, 1e-4, 46)
	var out []int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = ix.Query(queries[i%len(queries)], out[:0])
	}
}

// BenchmarkQuerySharedConverged is BenchmarkQueryConverged on the shared
// read path: the walk the sharded engine serves converged regions with.
func BenchmarkQuerySharedConverged(b *testing.B) {
	benchQueryShared(b, newDeltaIndex(200_000, 0, 45))
}

// BenchmarkQuerySharedDeltas is BenchmarkQuerySharedConverged with 4096
// pending inserts and 4096 tombstones on lane rows — one flush interval's
// worth of deltas merged into every answer.
func BenchmarkQuerySharedDeltas(b *testing.B) {
	benchQueryShared(b, newDeltaIndex(200_000, 4096, 45))
}

func benchQueryShared(b *testing.B, ix *Index) {
	queries := workload.Uniform(dataset.Universe(), 1024, 1e-4, 46)
	var out []int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ok bool
		if out, ok = ix.QueryShared(queries[i%len(queries)], out[:0]); !ok {
			b.Fatal("shared path bailed on a completed index")
		}
	}
}

// newDeltaIndex returns a completed index over n uniform rows that carries
// deltas pending inserts (IDs n and up, same distribution) and deltas
// tombstones on lane rows.
func newDeltaIndex(n, deltas int, seed int64) *Index {
	data := dataset.Uniform(n, seed)
	ix := New(dataset.Clone(data), Config{})
	ix.Complete()
	pending := dataset.Uniform(deltas, seed+1)
	for i := range pending {
		pending[i].ID += int32(n)
	}
	ix.Append(pending...)
	for _, o := range data[:deltas] {
		ix.Delete(o.ID, o.Box)
	}
	return ix
}

// BenchmarkQueryCrackHeavy measures the adaptive regime: a burst of queries
// against a fresh index, dominated by cracking rather than scanning.
func BenchmarkQueryCrackHeavy(b *testing.B) {
	const n = 1 << 18
	master := dataset.Uniform(n, 47)
	queries := workload.Uniform(dataset.Universe(), 64, 1e-3, 48)
	var out []int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ix := New(dataset.Clone(master), Config{})
		b.StartTimer()
		for _, q := range queries {
			out = ix.Query(q, out[:0])
		}
	}
}
