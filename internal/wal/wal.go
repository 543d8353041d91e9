// Package wal implements the write-ahead log behind the durable serving
// stack (internal/durable): live updates are appended — and, depending on
// the sync policy, fsynced — before they are acknowledged, so a crash loses
// no acknowledged write. Recovery replays the log on top of the latest
// snapshot; a checkpoint truncates it by starting a fresh log.
//
// The format is a flat sequence of records, each framed as
//
//	uint32 payload length | uint32 CRC-32C of payload | payload
//
// (little-endian). The payload starts with a one-byte opcode (insert or
// delete) followed by the operation's fields. Replay stops cleanly at the
// first torn or corrupt frame — the tail a crash mid-append leaves behind —
// and reports the byte offset of the last intact record so the caller can
// truncate before appending again.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"
	"time"

	"repro/internal/claimio"
	"repro/internal/faultfs"
	"repro/internal/geom"
	"repro/internal/telemetry"
)

// ErrBroken marks a log whose file can no longer be trusted: a failed
// fsync (the kernel may have dropped the very pages that failed to reach
// disk), or a failed append whose partial frame could not be cut back.
// Every later operation fails with it; recovery means retiring the file
// via a checkpoint rotation, not retrying against it.
var ErrBroken = errors.New("wal: log broken by prior I/O failure")

// SyncPolicy controls when appended records are fsynced to stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append, before the append returns: no
	// acknowledged write is ever lost, at the cost of one fsync per update.
	SyncAlways SyncPolicy = iota
	// SyncInterval leaves fsync to a caller-driven cadence (the durable
	// store runs a ticker calling Sync): a crash can lose at most the last
	// interval's acknowledged writes. Appends still reach the OS buffer
	// cache before returning, so only a machine crash — not a process
	// crash — can lose them.
	SyncInterval
	// SyncNever never fsyncs explicitly; the OS flushes on its own
	// schedule. For bulk loads and tests.
	SyncNever
)

// Op is a record opcode.
type Op byte

const (
	// OpInsert carries a batch of objects to insert.
	OpInsert Op = 1
	// OpDelete carries one ID plus its locator hint box.
	OpDelete Op = 2
)

// Record is one decoded log entry.
type Record struct {
	Op      Op
	Objects []geom.Object // OpInsert
	ID      int32         // OpDelete
	Hint    geom.Box      // OpDelete

	frameLen int // payload length of the decoded frame (replay bookkeeping)
}

// maxPayload bounds a record payload (1 GiB) so a corrupt length prefix
// cannot force an enormous allocation during replay.
const maxPayload = 1 << 30

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Metrics is the instrumentation a Log reports into. Any field may be nil
// (telemetry metrics no-op on nil receivers), as may the whole struct. The
// durable store owns one Metrics value and re-attaches it to each successor
// log a checkpoint rotation creates, so the series survive rotation.
type Metrics struct {
	// Appends counts committed records; AppendedBytes their framed bytes.
	Appends       *telemetry.Counter
	AppendedBytes *telemetry.Counter
	// AppendSeconds is the full commit latency: frame write plus, under
	// SyncAlways, the fsync — the latency an acknowledged update paid.
	AppendSeconds *telemetry.Histogram
	// Fsyncs counts explicit fsyncs; FsyncSeconds their latency, whichever
	// policy (per-append or interval cadence) issued them.
	Fsyncs       *telemetry.Counter
	FsyncSeconds *telemetry.Histogram
}

// Log is an append-only write-ahead log. Append-side methods are safe for
// concurrent use.
type Log struct {
	mu      sync.Mutex
	f       faultfs.File
	policy  SyncPolicy
	buf     []byte // frame scratch, reused across appends
	size    int64
	metrics *Metrics // nil when uninstrumented
	// truncated records how many torn-tail bytes open-time recovery cut
	// from the file — fixed at Create/OpenReplay so callers can log it.
	truncated int64
	// broken is non-nil once the file is untrustworthy (failed fsync, or a
	// failed append whose partial frame could not be cut back). It wraps
	// ErrBroken; every later append or sync returns it.
	broken error
}

// TruncatedBytes reports how many bytes of torn or corrupt tail were cut
// when the log was opened (0 for a clean file). A non-zero value is the
// footprint of a crash mid-append: expected after unclean shutdown, worth
// surfacing in logs either way.
func (l *Log) TruncatedBytes() int64 { return l.truncated }

// SetMetrics attaches (or detaches, with nil) instrumentation.
func (l *Log) SetMetrics(m *Metrics) {
	l.mu.Lock()
	l.metrics = m
	l.mu.Unlock()
}

// Create opens path for appending, creating it if absent. If the file has a
// torn tail (from a crash mid-append), it is truncated to the last intact
// record first — call Replay before Create to apply the surviving records.
func Create(path string, policy SyncPolicy) (*Log, error) {
	return CreateFS(faultfs.OS{}, path, policy)
}

// CreateFS is Create over an injectable file system.
func CreateFS(fsys faultfs.FS, path string, policy SyncPolicy) (*Log, error) {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	good, err := scanIntact(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	torn, err := tornTail(f, good)
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return &Log{f: f, policy: policy, size: good, truncated: torn}, nil
}

// tornTail measures how far the file extends past the last intact record.
func tornTail(f faultfs.File, good int64) (int64, error) {
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	if t := fi.Size() - good; t > 0 {
		return t, nil
	}
	return 0, nil
}

// OpenReplay opens the log at path for appending after replaying it: every
// intact record is passed to apply in order, a torn or corrupt tail is
// truncated, and the returned Log appends after the last intact record —
// recovery and reopen in a single pass over the file. A missing file is
// created empty (apply is never called). It returns the number of records
// replayed alongside the log.
func OpenReplay(path string, policy SyncPolicy, apply func(*Record) error) (*Log, int, error) {
	return OpenReplayFS(faultfs.OS{}, path, policy, apply)
}

// OpenReplayFS is OpenReplay over an injectable file system.
func OpenReplayFS(fsys faultfs.FS, path string, policy SyncPolicy, apply func(*Record) error) (*Log, int, error) {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, 0, err
	}
	br := bufio.NewReaderSize(f, 1<<16)
	var off int64
	n := 0
	var rec Record
	for {
		ok, rerr := readRecord(br, &rec)
		if rerr != nil {
			f.Close()
			return nil, n, rerr
		}
		if !ok {
			break
		}
		if apply != nil {
			if aerr := apply(&rec); aerr != nil {
				f.Close()
				return nil, n, fmt.Errorf("applying wal record %d: %w", n, aerr)
			}
		}
		off += int64(8 + rec.frameLen)
		n++
	}
	torn, err := tornTail(f, off)
	if err != nil {
		f.Close()
		return nil, n, err
	}
	if err := f.Truncate(off); err != nil {
		f.Close()
		return nil, n, err
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		f.Close()
		return nil, n, err
	}
	return &Log{f: f, policy: policy, size: off, truncated: torn}, n, nil
}

// Replay reads every intact record of the log at path in order, invoking
// apply on each. A missing file is an empty log. A torn or corrupt tail
// ends replay cleanly; the error return is reserved for I/O failures and
// apply errors.
func Replay(path string, apply func(*Record) error) (int, error) {
	return ReplayFS(faultfs.OS{}, path, apply)
}

// ReplayFS is Replay over an injectable file system.
func ReplayFS(fsys faultfs.FS, path string, apply func(*Record) error) (int, error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	n := 0
	var rec Record
	for {
		ok, err := readRecord(br, &rec)
		if err != nil {
			return n, err
		}
		if !ok {
			return n, nil
		}
		if err := apply(&rec); err != nil {
			return n, fmt.Errorf("applying wal record %d: %w", n, err)
		}
		n++
	}
}

// scanIntact returns the offset just past the last intact record.
func scanIntact(f faultfs.File) (int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, err
	}
	br := bufio.NewReaderSize(f, 1<<16)
	var off int64
	var rec Record
	for {
		ok, err := readRecordRaw(br, &rec, false)
		if err != nil {
			return 0, err
		}
		if !ok {
			return off, nil
		}
		off += int64(8 + rec.frameLen)
	}
}

// AppendInsert logs an insert of objs and returns once the record is
// durable to the configured policy.
func (l *Log) AppendInsert(objs []geom.Object) error {
	need := 1 + 4 + len(objs)*(4+6*8)
	l.mu.Lock()
	defer l.mu.Unlock()
	p := l.payloadBuf(need)
	p = append(p, byte(OpInsert))
	p = appendU32(p, uint32(len(objs)))
	for i := range objs {
		p = appendU32(p, uint32(objs[i].ID))
		p = appendBox(p, objs[i].Box)
	}
	return l.commit(p)
}

// AppendDelete logs a delete and returns once the record is durable to the
// configured policy.
func (l *Log) AppendDelete(id int32, hint geom.Box) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	p := l.payloadBuf(1 + 4 + 6*8)
	p = append(p, byte(OpDelete))
	p = appendU32(p, uint32(id))
	p = appendBox(p, hint)
	return l.commit(p)
}

// payloadBuf returns the scratch buffer with 8 framing bytes reserved.
func (l *Log) payloadBuf(need int) []byte {
	if cap(l.buf) < 8+need {
		l.buf = make([]byte, 0, 8+need)
	}
	return l.buf[:8]
}

// commit frames the payload (which sits at l.buf[8:]), writes it in one
// Write call, and syncs per policy. Called with mu held.
//
// A failed write self-repairs: whatever prefix of the frame reached the
// file is cut back so the log still ends on its last intact record and a
// retried append starts clean. If the cut itself fails the log is marked
// broken — the file's tail is unknown and nothing may append after it. A
// failed fsync marks the log broken unconditionally (fsync-gate semantics:
// the kernel may have dropped the dirty pages that failed, so a later
// "successful" fsync proves nothing about these bytes).
func (l *Log) commit(p []byte) error {
	if l.broken != nil {
		return l.broken
	}
	payload := p[8:]
	binary.LittleEndian.PutUint32(p[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(p[4:], crc32.Checksum(payload, crcTable))
	l.buf = p[:0]
	var t0 time.Time
	if l.metrics != nil {
		t0 = time.Now()
	}
	if _, err := l.f.Write(p); err != nil {
		if terr := l.truncateBack(); terr != nil {
			l.broken = fmt.Errorf("%w: cutting partial frame: %v (append failed: %v)", ErrBroken, terr, err)
		}
		return fmt.Errorf("wal append: %w", err)
	}
	l.size += int64(len(p))
	if l.policy == SyncAlways {
		if err := l.syncTimed(); err != nil {
			return err
		}
	}
	if m := l.metrics; m != nil {
		m.Appends.Inc()
		m.AppendedBytes.Add(int64(len(p)))
		m.AppendSeconds.ObserveDuration(time.Since(t0))
	}
	return nil
}

// truncateBack restores the file to its last committed length after a
// failed append. Called with mu held.
func (l *Log) truncateBack() error {
	if err := l.f.Truncate(l.size); err != nil {
		return err
	}
	_, err := l.f.Seek(l.size, io.SeekStart)
	return err
}

// syncTimed fsyncs, reporting latency when instrumented. A failure marks
// the log broken. Called with mu held.
func (l *Log) syncTimed() error {
	var t0 time.Time
	m := l.metrics
	if m != nil {
		t0 = time.Now()
	}
	err := l.f.Sync()
	if m != nil {
		m.Fsyncs.Inc()
		m.FsyncSeconds.ObserveDuration(time.Since(t0))
	}
	if err != nil {
		l.broken = fmt.Errorf("%w: fsync failed: %v", ErrBroken, err)
		return fmt.Errorf("wal fsync: %w", err)
	}
	return nil
}

// Sync forces buffered records to stable storage. Used by the SyncInterval
// cadence and before a checkpoint retires the log.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return l.broken
	}
	return l.syncTimed()
}

// Broken reports the error that condemned the log's file, or nil while the
// log is healthy. A broken log cannot be repaired in place; the durable
// store responds by rotating to a fresh log via checkpoint.
func (l *Log) Broken() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.broken
}

// Size returns the current log length in bytes.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Close syncs (unless the policy is SyncNever, or the log is already
// broken — syncing an untrustworthy file proves nothing) and closes the
// file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.policy != SyncNever && l.broken == nil {
		if err := l.f.Sync(); err != nil {
			l.f.Close()
			return err
		}
	}
	return l.f.Close()
}

func appendU32(p []byte, v uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return append(p, b[:]...)
}

func appendF64(p []byte, v float64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	return append(p, b[:]...)
}

func appendBox(p []byte, b geom.Box) []byte {
	for d := 0; d < geom.Dims; d++ {
		p = appendF64(p, b.Min[d])
	}
	for d := 0; d < geom.Dims; d++ {
		p = appendF64(p, b.Max[d])
	}
	return p
}

// readRecord decodes the next record; ok == false means a clean end (EOF or
// torn/corrupt tail).
func readRecord(br *bufio.Reader, rec *Record) (bool, error) {
	return readRecordRaw(br, rec, true)
}

// readRecordRaw is readRecord with optional payload decoding (scanIntact
// only needs frame validation).
func readRecordRaw(br *bufio.Reader, rec *Record, decode bool) (bool, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return false, nil // torn frame header: end of intact log
		}
		return false, err
	}
	plen := binary.LittleEndian.Uint32(hdr[0:])
	want := binary.LittleEndian.Uint32(hdr[4:])
	if plen == 0 || plen > maxPayload {
		return false, nil // nonsense length: corrupt tail
	}
	payload, err := claimio.ReadN(nil, br, int(plen))
	if err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return false, nil // torn payload
		}
		return false, err
	}
	if crc32.Checksum(payload, crcTable) != want {
		return false, nil // corrupt payload
	}
	rec.frameLen = int(plen)
	if !decode {
		return true, nil
	}
	return decodePayload(payload, rec)
}

func decodePayload(p []byte, rec *Record) (bool, error) {
	op := Op(p[0])
	p = p[1:]
	switch op {
	case OpInsert:
		if len(p) < 4 {
			return false, nil
		}
		n := binary.LittleEndian.Uint32(p)
		p = p[4:]
		if uint64(len(p)) != uint64(n)*(4+6*8) {
			return false, nil
		}
		objs := make([]geom.Object, n)
		for i := range objs {
			objs[i].ID = int32(binary.LittleEndian.Uint32(p))
			p = p[4:]
			p = readBox(p, &objs[i].Box)
		}
		*rec = Record{Op: OpInsert, Objects: objs, frameLen: rec.frameLen}
		return true, nil
	case OpDelete:
		if len(p) != 4+6*8 {
			return false, nil
		}
		id := int32(binary.LittleEndian.Uint32(p))
		p = p[4:]
		var hint geom.Box
		readBox(p, &hint)
		*rec = Record{Op: OpDelete, ID: id, Hint: hint, frameLen: rec.frameLen}
		return true, nil
	default:
		return false, nil // unknown opcode: treat as corruption, stop replay
	}
}

func readBox(p []byte, b *geom.Box) []byte {
	for d := 0; d < geom.Dims; d++ {
		b.Min[d] = math.Float64frombits(binary.LittleEndian.Uint64(p))
		p = p[8:]
	}
	for d := 0; d < geom.Dims; d++ {
		b.Max[d] = math.Float64frombits(binary.LittleEndian.Uint64(p))
		p = p[8:]
	}
	return p
}
