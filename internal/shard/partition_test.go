package shard

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
)

// tilingInputs returns the input shapes the tiling must handle: random,
// clustered and ordered centers, plus massive ties (every center equal in
// one dimension; only two distinct values per dimension).
func tilingInputs(n int) map[string][]geom.Object {
	rng := rand.New(rand.NewSource(5))
	gen := func(f func(i int) geom.Point) []geom.Object {
		objs := make([]geom.Object, n)
		for i := range objs {
			c := f(i)
			objs[i] = geom.Object{Box: geom.NewBox(c, geom.Point{c[0] + 1, c[1] + 2, c[2] + 3}), ID: int32(i)}
		}
		return objs
	}
	ramp := func(v float64) geom.Point { return geom.Point{v, 2 * v, -v} }
	return map[string][]geom.Object{
		"uniform":   dataset.Uniform(n, 13),
		"clustered": dataset.Neuro(n, 13, dataset.NeuroConfig{}),
		"sorted":    gen(func(i int) geom.Point { return ramp(float64(i)) }),
		"reverse":   gen(func(i int) geom.Point { return ramp(float64(n - i)) }),
		"organpipe": gen(func(i int) geom.Point { return ramp(float64(min(i, n-i))) }),
		"flat-x": gen(func(int) geom.Point {
			return geom.Point{7, rng.Float64() * 100, rng.Float64() * 100}
		}),
		"two-values": gen(func(int) geom.Point {
			return geom.Point{float64(rng.Intn(2)), float64(rng.Intn(2)), float64(rng.Intn(2))}
		}),
	}
}

// checkCut asserts that the groups are the k rank cuts of their
// concatenation (sizes (i+1)*n/k - i*n/k) and that no dimension-d center
// in a group exceeds any center in the next group.
func checkCut(t *testing.T, groups [][]geom.Object, k, d int) {
	t.Helper()
	n := 0
	for _, g := range groups {
		n += len(g)
	}
	if len(groups) != k {
		t.Fatalf("dim %d: %d groups, want %d", d, len(groups), k)
	}
	for i, g := range groups {
		if want := (i+1)*n/k - i*n/k; len(g) != want {
			t.Fatalf("dim %d: group %d holds %d objects, want %d", d, i, len(g), want)
		}
	}
	for i := 0; i+1 < len(groups); i++ {
		hi := center(&groups[i][0], d)
		for j := range groups[i] {
			hi = max(hi, center(&groups[i][j], d))
		}
		for j := range groups[i+1] {
			if c := center(&groups[i+1][j], d); c < hi {
				t.Fatalf("dim %d: group %d holds center %v above center %v of group %d", d, i, hi, c, i+1)
			}
		}
	}
}

// concat joins consecutive parts into one group per step of size.
func concat(parts [][]geom.Object, size int) [][]geom.Object {
	var groups [][]geom.Object
	for i := 0; i < len(parts); i += size {
		var g []geom.Object
		for _, p := range parts[i : i+size] {
			g = append(g, p...)
		}
		groups = append(groups, g)
	}
	return groups
}

// TestPartitionTilingProperty checks the STR tiling level by level for
// many shard counts and input shapes: every object lands in exactly one
// part, part sizes are the nested i*n/k rank cuts, and at every level no
// center in a tile exceeds any center in the next tile.
func TestPartitionTilingProperty(t *testing.T) {
	const n = 3001
	for name, data := range tilingInputs(n) {
		for _, p := range []int{2, 3, 4, 7, 8, 16} {
			t.Run(fmt.Sprintf("%s/p=%d", name, p), func(t *testing.T) {
				parts := partition(data, p)
				seen := make(map[int32]int, n)
				for _, part := range parts {
					for _, o := range part {
						seen[o.ID]++
					}
				}
				for _, o := range data {
					if seen[o.ID] != 1 {
						t.Fatalf("object %d lands in %d parts", o.ID, seen[o.ID])
					}
				}
				if len(seen) != n {
					t.Fatalf("parts hold %d distinct objects, want %d", len(seen), n)
				}
				px, py, pz := factor3(p)
				if len(parts) != p {
					t.Fatalf("%d parts, want %d", len(parts), p)
				}
				checkCut(t, concat(parts, py*pz), px, 0)
				for s := 0; s < px; s++ {
					slab := parts[s*py*pz : (s+1)*py*pz]
					checkCut(t, concat(slab, pz), py, 1)
					for r := 0; r < py; r++ {
						checkCut(t, slab[r*pz:(r+1)*pz], pz, 2)
					}
				}
			})
		}
	}
}

// TestSelectRanksDepthFallback drives selectRanks with exhausted and nearly
// exhausted round budgets, so the sort fallback settles the cuts, and with
// the full budget, on every input shape.
func TestSelectRanksDepthFallback(t *testing.T) {
	const n, k = 1000, 7
	for name, data := range tilingInputs(n) {
		for _, depth := range []int{0, 1, 2, 40} {
			for d := 0; d < geom.Dims; d++ {
				objs := append([]geom.Object(nil), data...)
				cuts := make([]int, k-1)
				for i := range cuts {
					cuts[i] = (i + 1) * n / k
				}
				selectRanks(objs, 0, n, cuts, d, depth)
				groups := make([][]geom.Object, k)
				for i := range groups {
					groups[i] = objs[i*n/k : (i+1)*n/k]
				}
				t.Run(fmt.Sprintf("%s/depth=%d/dim=%d", name, depth, d), func(t *testing.T) {
					checkCut(t, groups, k, d)
				})
			}
		}
	}
}
