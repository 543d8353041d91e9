package crack

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func keyF(v *float64) float64 { return *v }

func TestTwoWayBasic(t *testing.T) {
	data := []float64{5, 1, 9, 3, 7, 2, 8}
	mid := TwoWay(data, 0, len(data), 5, keyF)
	if !Verify(data, 0, len(data), mid, 5, keyF) {
		t.Fatalf("not partitioned: %v mid=%d", data, mid)
	}
	if mid != 3 {
		t.Fatalf("mid = %d, want 3 (three elements < 5)", mid)
	}
}

func TestTwoWayAllBelow(t *testing.T) {
	data := []float64{1, 2, 3}
	mid := TwoWay(data, 0, len(data), 10, keyF)
	if mid != 3 {
		t.Fatalf("mid = %d, want 3", mid)
	}
}

func TestTwoWayAllAboveOrEqual(t *testing.T) {
	data := []float64{10, 11, 12}
	mid := TwoWay(data, 0, len(data), 10, keyF)
	if mid != 0 {
		t.Fatalf("mid = %d, want 0", mid)
	}
}

func TestTwoWayEmptyRange(t *testing.T) {
	data := []float64{1, 2, 3}
	mid := TwoWay(data, 1, 1, 2, keyF)
	if mid != 1 {
		t.Fatalf("mid = %d, want 1", mid)
	}
}

func TestTwoWaySingleElement(t *testing.T) {
	data := []float64{5}
	if mid := TwoWay(data, 0, 1, 5, keyF); mid != 0 {
		t.Fatalf("pivot == elem: mid = %d, want 0", mid)
	}
	if mid := TwoWay(data, 0, 1, 6, keyF); mid != 1 {
		t.Fatalf("pivot > elem: mid = %d, want 1", mid)
	}
}

func TestTwoWaySubrangeOnly(t *testing.T) {
	data := []float64{100, 5, 1, 9, 3, -100}
	mid := TwoWay(data, 1, 5, 5, keyF)
	if !Verify(data, 1, 5, mid, 5, keyF) {
		t.Fatalf("not partitioned in subrange: %v", data)
	}
	if data[0] != 100 || data[5] != -100 {
		t.Fatalf("elements outside range touched: %v", data)
	}
}

func TestTwoWayDuplicates(t *testing.T) {
	data := []float64{3, 3, 3, 3}
	if mid := TwoWay(data, 0, 4, 3, keyF); mid != 0 {
		t.Fatalf("mid = %d, want 0 (>= pivot goes right)", mid)
	}
	data = []float64{3, 3, 3, 3}
	if mid := TwoWay(data, 0, 4, 3.5, keyF); mid != 4 {
		t.Fatalf("mid = %d, want 4", mid)
	}
}

func TestThreeWayBasic(t *testing.T) {
	data := []float64{9, 2, 7, 4, 1, 6, 3, 8, 5, 0}
	m1, m2 := ThreeWay(data, 0, len(data), 3, 7, keyF)
	for i := 0; i < m1; i++ {
		if data[i] >= 3 {
			t.Fatalf("left band violated at %d: %v", i, data)
		}
	}
	for i := m1; i < m2; i++ {
		if data[i] < 3 || data[i] >= 7 {
			t.Fatalf("middle band violated at %d: %v", i, data)
		}
	}
	for i := m2; i < len(data); i++ {
		if data[i] < 7 {
			t.Fatalf("right band violated at %d: %v", i, data)
		}
	}
	if m1 != 3 || m2 != 7 {
		t.Fatalf("m1,m2 = %d,%d, want 3,7", m1, m2)
	}
}

func TestThreeWayEqualBounds(t *testing.T) {
	data := []float64{5, 1, 9, 3, 7}
	m1, m2 := ThreeWay(data, 0, len(data), 5, 5, keyF)
	if m1 != m2 {
		t.Fatalf("equal bounds should give empty middle band: m1=%d m2=%d", m1, m2)
	}
}

func TestVerifyRejectsBadMid(t *testing.T) {
	data := []float64{1, 2}
	if Verify(data, 0, 2, 3, 1.5, keyF) {
		t.Fatal("Verify should reject out-of-range mid")
	}
	if Verify(data, 0, 2, 0, 1.5, keyF) {
		t.Fatal("Verify should reject mid=0 when data[0] < pivot")
	}
}

// Property: TwoWay preserves the multiset of elements and produces a valid
// partition for arbitrary inputs and pivots.
func TestTwoWayProperty(t *testing.T) {
	f := func(vals []float64, pivot float64) bool {
		orig := append([]float64(nil), vals...)
		mid := TwoWay(vals, 0, len(vals), pivot, keyF)
		if !Verify(vals, 0, len(vals), mid, pivot, keyF) {
			return false
		}
		sort.Float64s(orig)
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		for i := range orig {
			if orig[i] != sorted[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: ThreeWay's crack positions equal the counts a sequential scan
// would produce, for random data.
func TestThreeWayCountsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 200; iter++ {
		n := rng.Intn(200)
		data := make([]float64, n)
		for i := range data {
			data[i] = float64(rng.Intn(50))
		}
		low := float64(rng.Intn(50))
		high := low + float64(rng.Intn(20))
		var below, mid int
		for _, v := range data {
			if v < low {
				below++
			} else if v < high {
				mid++
			}
		}
		m1, m2 := ThreeWay(data, 0, n, low, high, keyF)
		if m1 != below || m2 != below+mid {
			t.Fatalf("counts mismatch: m1=%d m2=%d want %d %d", m1, m2, below, below+mid)
		}
	}
}
