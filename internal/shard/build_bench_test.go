package shard

import (
	"runtime"
	"testing"

	"repro/internal/dataset"
)

// BenchmarkShardedBuild measures the build layer: STR tiling plus one
// sub-index per shard (New), and the same followed by full refinement
// (New+Complete), over 200k uniform objects in GOMAXPROCS shards.
func BenchmarkShardedBuild(b *testing.B) {
	data := dataset.Uniform(200_000, 45)
	cfg := Config{Shards: runtime.GOMAXPROCS(0)}
	b.Run("New", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			New(data, cfg)
		}
	})
	b.Run("New+Complete", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			New(data, cfg).Complete()
		}
	})
}
