package colstore

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func randomTable(n int, seed int64) *Table {
	rng := rand.New(rand.NewSource(seed))
	objs := make([]geom.Object, n)
	for i := range objs {
		var b geom.Box
		for d := 0; d < geom.Dims; d++ {
			lo := rng.Float64() * 1000
			b.Min[d] = lo
			b.Max[d] = lo + rng.Float64()*10
		}
		objs[i] = geom.Object{Box: b, ID: int32(i)}
	}
	return FromObjects(objs)
}

func tablesEqual(a, b *Table) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.ObjectAt(i) != b.ObjectAt(i) {
			return false
		}
	}
	return true
}

func TestLaneRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, ioChunkRows, ioChunkRows + 1, 3*ioChunkRows + 17} {
		src := randomTable(n, int64(n)+1)
		var buf bytes.Buffer
		if err := src.WriteLanes(&buf); err != nil {
			t.Fatalf("n=%d: WriteLanes: %v", n, err)
		}
		var dst Table
		if err := dst.ReadLanes(&buf, -1); err != nil {
			t.Fatalf("n=%d: ReadLanes: %v", n, err)
		}
		if !tablesEqual(src, &dst) {
			t.Fatalf("n=%d: round trip changed table contents", n)
		}
		if buf.Len() != 0 {
			t.Fatalf("n=%d: %d unread bytes after ReadLanes", n, buf.Len())
		}
	}
}

func TestLaneReuseAcrossReads(t *testing.T) {
	big := randomTable(5000, 1)
	small := randomTable(10, 2)
	var bigBuf, smallBuf bytes.Buffer
	if err := big.WriteLanes(&bigBuf); err != nil {
		t.Fatal(err)
	}
	if err := small.WriteLanes(&smallBuf); err != nil {
		t.Fatal(err)
	}
	var dst Table
	if err := dst.ReadLanes(&bigBuf, -1); err != nil {
		t.Fatal(err)
	}
	if err := dst.ReadLanes(&smallBuf, -1); err != nil {
		t.Fatal(err)
	}
	if !tablesEqual(small, &dst) {
		t.Fatal("reused table does not match second payload")
	}
}

func TestLaneChecksumDetectsCorruption(t *testing.T) {
	src := randomTable(100, 3)
	var buf bytes.Buffer
	if err := src.WriteLanes(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)/2] ^= 0x40 // flip one lane bit
	var dst Table
	if err := dst.ReadLanes(bytes.NewReader(raw), -1); err == nil {
		t.Fatal("corrupted lanes decoded without error")
	}
}

func TestLaneRowBound(t *testing.T) {
	src := randomTable(100, 4)
	var buf bytes.Buffer
	if err := src.WriteLanes(&buf); err != nil {
		t.Fatal(err)
	}
	var dst Table
	if err := dst.ReadLanes(bytes.NewReader(buf.Bytes()), 50); err == nil {
		t.Fatal("row count above maxRows decoded without error")
	}
	if err := dst.ReadLanes(bytes.NewReader(buf.Bytes()), 100); err != nil {
		t.Fatalf("row count at maxRows rejected: %v", err)
	}
}

func TestLaneTruncationDetected(t *testing.T) {
	src := randomTable(200, 5)
	var buf bytes.Buffer
	if err := src.WriteLanes(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	var dst Table
	if err := dst.ReadLanes(bytes.NewReader(raw[:len(raw)-5]), -1); err == nil {
		t.Fatal("truncated lanes decoded without error")
	}
}

// TestLaneGrowthFollowsBytes: a fresh table decodes into lanes of capacity
// exactly n, and a stream claiming far more rows than it carries costs
// memory in proportion to its bytes, not its claim, and leaves t empty.
func TestLaneGrowthFollowsBytes(t *testing.T) {
	n := 3*ioChunkRows + 17
	src := randomTable(n, 6)
	var buf bytes.Buffer
	if err := src.WriteLanes(&buf); err != nil {
		t.Fatal(err)
	}
	var dst Table
	if err := dst.ReadLanes(bytes.NewReader(buf.Bytes()), -1); err != nil {
		t.Fatal(err)
	}
	for d := 0; d < geom.Dims; d++ {
		if cap(dst.Min[d]) != n || cap(dst.Max[d]) != n {
			t.Fatalf("lane capacities min[%d]=%d max[%d]=%d, want %d",
				d, cap(dst.Min[d]), d, cap(dst.Max[d]), n)
		}
	}
	if cap(dst.ID) != n {
		t.Fatalf("id lane capacity %d, want %d", cap(dst.ID), n)
	}

	// Claim 20M rows, deliver the first 10 rows of one lane.
	raw := append([]byte(nil), buf.Bytes()[:8+8*10]...)
	binary.LittleEndian.PutUint64(raw, 20_000_000)
	var hostile Table
	if err := hostile.ReadLanes(bytes.NewReader(raw), -1); err == nil {
		t.Fatal("short stream decoded without error")
	}
	if hostile.Len() != 0 || cap(hostile.Min[0]) > ioChunkRows || hostile.Max[0] != nil || hostile.ID != nil {
		t.Fatalf("short stream left len %d, min[0] capacity %d, other lanes allocated: %v",
			hostile.Len(), cap(hostile.Min[0]), hostile.ID != nil)
	}
}
