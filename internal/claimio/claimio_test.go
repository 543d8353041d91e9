package claimio

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"
)

func TestReadNExact(t *testing.T) {
	src := make([]byte, 3*firstChunk+17)
	for i := range src {
		src[i] = byte(i * 7)
	}
	for _, n := range []int{0, 1, firstChunk - 1, firstChunk, firstChunk + 1, len(src)} {
		got, err := ReadN([]byte("hdr"), bytes.NewReader(src), n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if string(got[:3]) != "hdr" || !bytes.Equal(got[3:], src[:n]) {
			t.Fatalf("n=%d: wrong bytes", n)
		}
	}
}

func TestReadNShortStream(t *testing.T) {
	if _, err := ReadN(nil, bytes.NewReader(nil), 10); err != io.EOF {
		t.Fatalf("empty stream: err %v, want io.EOF", err)
	}
	got, err := ReadN(nil, bytes.NewReader(make([]byte, firstChunk+5)), 1<<20)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short stream: err %v, want io.ErrUnexpectedEOF", err)
	}
	if len(got) != firstChunk+5 {
		t.Fatalf("short stream: kept %d bytes, want %d", len(got), firstChunk+5)
	}
}

func TestReadNReusesCapacity(t *testing.T) {
	buf := make([]byte, 0, 4096)
	r := bytes.NewReader(make([]byte, 4096))
	allocs := testing.AllocsPerRun(10, func() {
		r.Seek(0, io.SeekStart)
		if _, err := ReadN(buf[:0], r, 4096); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ReadN into a large enough buffer: %v allocs, want 0", allocs)
	}
}

// TestReadNBoundsClaim: a claim of 2 GiB backed by 10 bytes costs at most
// the first chunk.
func TestReadNBoundsClaim(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadN(nil, bytes.NewReader(make([]byte, 10)), 2<<30)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a 10-byte stream satisfied a 2 GiB claim")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("a 10-byte stream claiming 2 GiB allocated %d KiB", grew>>10)
	}
}
