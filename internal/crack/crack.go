// Package crack implements the in-place partitioning primitives of database
// cracking (Idreos et al., CIDR 2007) generalized to arbitrary element types
// via a key function. The shard tiler selects its STR rank cuts with
// ThreeWay (internal/shard/partition.go).
//
// All operations reorganize data[lo:hi] in place, exactly like the partition
// step of quicksort, and return the crack positions. They are deliberately
// unstable: cracking cares only about which side of a bound an element lands
// on, not about relative order within a partition.
package crack

// TwoWay partitions data[lo:hi) so that every element with key < pivot ends up
// before every element with key >= pivot. It returns mid such that
//
//	key(data[i]) <  pivot  for lo <= i < mid
//	key(data[i]) >= pivot  for mid <= i < hi
func TwoWay[T any](data []T, lo, hi int, pivot float64, key func(*T) float64) (mid int) {
	i, j := lo, hi-1
	for i <= j {
		for i <= j && key(&data[i]) < pivot {
			i++
		}
		for i <= j && key(&data[j]) >= pivot {
			j--
		}
		if i < j {
			data[i], data[j] = data[j], data[i]
			i++
			j--
		}
	}
	return i
}

// ThreeWay partitions data[lo:hi) into three bands relative to [low, high):
//
//	key <  low          for lo <= i < m1
//	low <= key < high   for m1 <= i < m2
//	key >= high         for m2 <= i < hi
//
// It requires low <= high and is implemented as two sequential two-way cracks,
// mirroring the nested crack-in-two strategy of database cracking.
func ThreeWay[T any](data []T, lo, hi int, low, high float64, key func(*T) float64) (m1, m2 int) {
	m1 = TwoWay(data, lo, hi, low, key)
	m2 = TwoWay(data, m1, hi, high, key)
	return m1, m2
}

// Verify reports whether data[lo:hi) is correctly partitioned at mid with
// respect to pivot: all keys before mid are < pivot and all keys from mid on
// are >= pivot. It exists for tests and debugging assertions.
func Verify[T any](data []T, lo, hi, mid int, pivot float64, key func(*T) float64) bool {
	if mid < lo || mid > hi {
		return false
	}
	for i := lo; i < mid; i++ {
		if key(&data[i]) >= pivot {
			return false
		}
	}
	for i := mid; i < hi; i++ {
		if key(&data[i]) < pivot {
			return false
		}
	}
	return true
}
