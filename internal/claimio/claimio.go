// Package claimio reads byte runs whose length comes from a header the
// reader cannot trust yet: a snapshot's header length, a WAL frame's
// payload length, a replication archive's file size. Such a length is only
// a claim until that many bytes have arrived, so memory must follow the
// bytes, not the claim — otherwise a few corrupt or hostile header bytes
// make the process allocate gigabytes before the read fails.
package claimio

import "io"

// firstChunk is the most ReadN reserves before any byte of a claimed run
// has arrived.
const firstChunk = 64 << 10

// ReadN appends exactly n bytes read from r to dst and returns the
// extended slice. Capacity dst already has is used first; beyond it the
// buffer starts at firstChunk and doubles, capped at the claim, only as
// bytes arrive, so a stream that stops short costs memory in proportion to
// what it carried. The errors are io.ReadFull's: io.EOF when r yields no
// byte at all, io.ErrUnexpectedEOF when it ends partway. On error the
// returned slice holds dst and the bytes that did arrive.
func ReadN(dst []byte, r io.Reader, n int) ([]byte, error) {
	start, want := len(dst), len(dst)+n
	for len(dst) < want {
		if len(dst) == cap(dst) {
			grown := make([]byte, len(dst), min(max(2*cap(dst), len(dst)+firstChunk), want))
			copy(grown, dst)
			dst = grown
		}
		m, err := io.ReadFull(r, dst[len(dst):min(cap(dst), want)])
		dst = dst[:len(dst)+m]
		if err != nil {
			if err == io.EOF && len(dst) > start {
				err = io.ErrUnexpectedEOF
			}
			return dst, err
		}
	}
	return dst, nil
}
