package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/geom"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// ladder is the traced pass of a workload. It replays the workload's
// recorded range queries down the stack, one rung per layer:
//
//	socket -> Server.Handler() -> Sharded -> QUASII -> colstore
//
// Each rung runs on a fresh copy of the workload's system, so every rung
// starts from the same index state and does the same work. A replayed
// query gets a span on every rung with the same request ID, the parent
// being the rung above, and a layer's self time is its span minus the
// next rung's. Layers the workload's requests do not reach in the state
// a metric names (a converged index, one carrying deltas, a store) are
// measured on fixtures built from the workload's own data and queries.
type ladder struct {
	in *inputs
	// overhead is the traced minus the untraced query p50 of the load.
	overhead float64
	// occupancy is the mean coalesced batch of the workload's own load
	// (the replay below sends one query at a time, so its own is 1).
	occupancy float64
	// engine builds the workload's engine; serve builds its whole system.
	engine func() *shard.Index
	serve  func(traced bool) (*system, error)
}

func runLadder(e *env, l *ladder) error {
	in := l.in
	n := min(len(in.queries), e.sz.ladderQueries)
	qs, qRef := in.queries[:n], in.qRef[:n]
	bodies := make([][]byte, n)
	for i, q := range qs {
		bodies[i] = queryBody(q)
	}
	e.set("trace.overhead_query_p50_us", l.overhead, n)
	if _, ok := e.metrics["gen.late_p99_ms"]; !ok {
		e.set("gen.late_p99_ms", 0, 0) // closed loops keep no schedule
	}
	check := func(rung string, i int, ids []int32) error {
		return e.checkRange(fmt.Sprintf("%s query %d", rung, i), ids, qRef[i], qs[i], nil)
	}

	// Rung 1: the socket.
	sys, err := l.serve(true)
	if err != nil {
		return err
	}
	c := newClient(sys.url)
	sock, sockSpan := make([]float64, n), make([]int, n)
	for i := range qs {
		t0 := time.Now()
		b, err := c.post("/query", bodies[i])
		t1 := time.Now()
		sock[i] = float64(t1.Sub(t0).Nanoseconds()) / 1e3
		sockSpan[i] = e.spans.add("socket.query", i, 0, t0, t1)
		var ids []int32
		if err == nil {
			ids, err = decodeIDs(b)
		}
		if err == nil {
			err = check("socket", i, ids)
		}
		e.op(err)
	}
	var slow server.SlowlogResponse
	if err := c.get("/debug/slowlog", &slow); err != nil {
		return err
	}
	c.close()
	if err := sys.close(); err != nil {
		return err
	}
	var coalesce []float64
	for _, t := range slow.Traces {
		if t.Endpoint == "query" {
			coalesce = append(coalesce, float64(t.Stages["coalesce"]))
		}
	}
	e.setPct("server.coalesce_wait_p50_us", coalesce, 50)
	e.set("server.batch_occupancy_mean", l.occupancy, 1)

	// Rung 2: the server's handler, in process, without a socket.
	sys, err = l.serve(true)
	if err != nil {
		return err
	}
	h := sys.srv.Handler()
	serveOne := func(path string, body []byte) ([]byte, error) {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rr.Code != http.StatusOK {
			return nil, fmt.Errorf("%s: status %d: %.200s", path, rr.Code, rr.Body.Bytes())
		}
		return rr.Body.Bytes(), nil
	}
	hand, handSpan, overhead := make([]float64, n), make([]int, n), make([]float64, n)
	for i := range qs {
		t0 := time.Now()
		b, err := serveOne("/query", bodies[i])
		t1 := time.Now()
		hand[i] = float64(t1.Sub(t0).Nanoseconds()) / 1e3
		overhead[i] = sock[i] - hand[i]
		handSpan[i] = e.spans.add("handler.query", i, sockSpan[i], t0, t1)
		var ids []int32
		if err == nil {
			ids, err = decodeIDs(b)
		}
		if err == nil {
			err = check("handler", i, ids)
		}
		e.op(err)
	}
	e.setPct("transport.query_overhead_p50_us", overhead, 50)
	e.setPct("server.query_handler_p50_us", hand, 50)
	var hb, hi []float64
	for i, b := range in.batches {
		body := batchBody(b)
		t0 := time.Now()
		resp, err := serveOne("/batch", body)
		hb = append(hb, usSince(t0))
		if err == nil {
			err = checkBatch(e, resp, in, i, nil)
		}
		e.op(err)
	}
	e.setPct("server.batch_handler_p50_us", hb, 50)
	for _, o := range in.writes[:min(len(in.writes), e.sz.writes)] {
		ins, del := insertBody(o), deleteBody(o)
		t0 := time.Now()
		_, err := serveOne("/insert", ins)
		hi = append(hi, usSince(t0))
		e.op(err)
		b, err := serveOne("/delete", del)
		if err == nil {
			var found bool
			if found, err = decodeDeleted(b); err == nil && !found {
				err = e.mismatch("handler delete %d found nothing", o.ID)
			}
		}
		e.op(err)
	}
	e.setPct("server.insert_handler_p50_us", hi, 50)
	if err := sys.close(); err != nil {
		return err
	}
	sys = nil

	// Rung 3: the sharded engine.
	ix := l.engine()
	before := ix.Stats().Core
	sh, shSpan := make([]float64, n), make([]int, n)
	var buf []int32
	for i, q := range qs {
		t0 := time.Now()
		buf = ix.Query(q, buf[:0])
		t1 := time.Now()
		sh[i] = float64(t1.Sub(t0).Nanoseconds()) / 1e3
		shSpan[i] = e.spans.add("shard.query", i, handSpan[i], t0, t1)
		e.op(check("shard", i, buf))
	}
	after := ix.Stats().Core
	e.setPct("shard.query_p50_us", sh, 50)
	e.setPct("shard.query_p99_us", sh, 99)
	e.set("shard.shared_ratio", float64(after.SharedQueries-before.SharedQueries)/float64(n), n)
	sb, sk := libraryReads(e, ix, in)
	e.setPct("shard.batch_p50_us", sb, 50)
	e.setPct("shard.knn_p50_us", sk, 50)
	si, sd := libraryWrites(e, ix, in.writes[:min(len(in.writes), e.sz.writes)])
	e.setPct("shard.insert_p50_us", si, 50)
	e.setPct("shard.delete_p50_us", sd, 50)
	e.set("core.slices_refined", float64(ix.Stats().Core.SlicesRefined), 1)
	ix = nil
	runtime.GC()

	// Rung 4: one QUASII index over all the data, fresh, so the replay is
	// the cold path with every query routed to it.
	cx := core.New(quasii.CloneObjects(in.data), core.Config{})
	cold, coreSpan := make([]float64, n), make([]int, n)
	for i, q := range qs {
		t0 := time.Now()
		buf = cx.Query(q, buf[:0])
		t1 := time.Now()
		cold[i] = float64(t1.Sub(t0).Nanoseconds()) / 1e3
		coreSpan[i] = e.spans.add("core.query", i, shSpan[i], t0, t1)
		e.op(check("core", i, buf))
	}
	cs := cx.Stats()
	e.setPct("core.query_cold_p50_us", cold, 50)
	e.set("core.cracked_objects_per_query", float64(cs.CrackedObjects)/float64(max(cs.Queries, 1)), cs.Queries)
	e.set("core.tested_per_result", float64(cs.ObjectsTested)/float64(max(cs.ResultObjects, 1)), cs.Queries)
	cx = nil
	runtime.GC()

	// Rung 5: the colstore kernels over lanes of the workload's size.
	colstoreKernels(e, in.data, qs, coreSpan)

	fx := fixture(in, e.sz.writes+tailInserts)
	coreFixture(e, fx, qs)
	if err := flushFixture(e, fx); err != nil {
		return err
	}
	if err := durableFixture(e, fx); err != nil {
		return err
	}
	return walFixture(e, fx.writes)
}

// colstoreKernels times Table.Partition, the cracking kernel, over every
// row, and Table.ScanIntersect, the leaf kernel, over runs of leaf-sized
// ranges for each replayed query.
func colstoreKernels(e *env, data []geom.Object, qs []geom.Box, parents []int) {
	tbl := colstore.FromObjects(data)
	rows := len(data)
	var part []float64
	u := quasii.Universe().Center()
	for d := 0; d < geom.Dims; d++ {
		t0 := time.Now()
		tbl.Partition(0, rows, d, u[d], colstore.KeyLower)
		t1 := time.Now()
		part = append(part, float64(t1.Sub(t0).Nanoseconds())/float64(rows))
		e.spans.add("colstore.partition", -1-d, 0, t0, t1)
	}
	e.setPct("colstore.partition_ns_per_row", part, 50)

	const leaf, leaves = 60, 64 // QUASII's default leaf size τ, ranges per timing
	rng := rand.New(rand.NewSource(e.seed))
	var scan []float64
	var out []int32
	for i, q := range qs {
		lo := rng.Intn(max(rows-leaf*leaves, 1))
		t0 := time.Now()
		for j := 0; j < leaves; j++ {
			a := min(lo+j*leaf, rows)
			out = tbl.ScanIntersect(a, min(a+leaf, rows), q, out[:0])
		}
		t1 := time.Now()
		scan = append(scan, float64(t1.Sub(t0).Nanoseconds())/float64(min(leaf*leaves, rows)))
		e.spans.add("colstore.scan", i, parents[i], t0, t1)
	}
	e.setPct("colstore.scan_ns_per_row", scan, 50)
}

// fixture returns the workload's inputs with nWrites fresh writes of
// their own.
func fixture(in *inputs, nWrites int) *inputs {
	fx := *in
	near := make([]geom.Box, nWrites)
	for i := range near {
		near[i] = in.queries[i%len(in.queries)]
	}
	fx.writes = writeObjects(near, 1<<24, 7)
	return &fx
}

// coreFixture measures one QUASII index over the fixture data in the
// states updates put it in: converged, converged carrying pending inserts
// and tombstones, right after the Flush that folds them, and under a
// growing tombstone set.
func coreFixture(e *env, fx *inputs, qs []geom.Box) {
	replay := func(cx *core.Index, want []answer, live []geom.Object, name string) []float64 {
		var lat []float64
		var buf []int32
		for i, q := range qs {
			t0 := time.Now()
			buf = cx.Query(q, buf[:0])
			lat = append(lat, usSince(t0))
			e.op(e.checkRange(fmt.Sprintf("%s query %d", name, i), buf, want[i], q, live))
		}
		return lat
	}
	cx := core.New(quasii.CloneObjects(fx.data), core.Config{})
	cx.Complete()
	e.setPct("core.query_converged_p50_us", replay(cx, fx.qRef, nil, "converged"), 50)

	// Deltas: flushPending inserts and as many tombstones, with their
	// reference answers computed first.
	k := min(e.sz.flushPending, len(fx.data))
	near := make([]geom.Box, k)
	for i := range near {
		near[i] = qs[i%len(qs)]
	}
	pending := writeObjects(near, 1<<25, 11)
	dead := map[int32]bool{}
	for _, o := range fx.data[:k] {
		dead[o.ID] = true
	}
	want := make([]answer, len(qs))
	var buf []int32
	for i, q := range qs {
		buf = fx.ref.query(q, buf[:0])
		for _, id := range buf {
			if !dead[id] {
				want[i].add(id)
			}
		}
	}
	cx.Append(pending...)
	for _, o := range fx.data[:k] {
		if !cx.Delete(o.ID, o.Box) {
			e.op(e.mismatch("core delete %d found nothing", o.ID))
		}
	}
	e.setPct("core.query_delta_p50_us", replay(cx, want, pending, "delta"), 50)
	cx.Flush()
	e.setPct("core.query_after_flush_p50_us", replay(cx, want, pending, "after-flush"), 50)

	// Deletes as the tombstone set grows from 1k to sizes.tombstones.
	cx = core.New(quasii.CloneObjects(fx.data), core.Config{})
	cx.Complete()
	var del []float64
	for j, o := range fx.data[:min(e.sz.tombstones, len(fx.data))] {
		t0 := time.Now()
		ok := cx.Delete(o.ID, o.Box)
		d := usSince(t0)
		if j >= 1024 {
			del = append(del, d)
		}
		if !ok {
			e.op(e.mismatch("core delete %d found nothing", o.ID))
		}
	}
	e.setPct("core.delete_p50_us", del, 50)
}

// flushFixture times Sharded.Flush with flushPending pending inserts, the
// server's automatic flush threshold, three times.
func flushFixture(e *env, fx *inputs) error {
	ix := quasii.NewSharded(fx.data, quasii.ShardedConfig{})
	var ms []float64
	for r := 0; r < 3; r++ {
		near := make([]geom.Box, e.sz.flushPending)
		for i := range near {
			near[i] = fx.queries[i%len(fx.queries)]
		}
		if err := ix.Insert(writeObjects(near, int32(1<<26+r*e.sz.flushPending), int64(r))...); err != nil {
			return err
		}
		t0 := time.Now()
		err := ix.Flush()
		ms = append(ms, usSince(t0)/1e3)
		e.op(err)
		if n := ix.Len(); n != len(fx.data)+(r+1)*e.sz.flushPending {
			e.op(e.mismatch("after flush %d the engine holds %d objects", r, n))
		}
	}
	e.setPct("shard.flush_ms", ms, 50)
	return nil
}

// durableFixture measures the store under mixed_write's fsync policy:
// Store.Insert latency, Checkpoint time and the update pause the registry
// records for it, and a reopen of a copy of the directory after a tail of
// inserts that only the WAL holds.
func durableFixture(e *env, fx *inputs) error {
	dir := filepath.Join(e.tmp, "durable-fixture")
	store, err := durable.Open(dir, storeOptions(fx.data, 0))
	if err != nil {
		return err
	}
	defer store.Close()
	reg := telemetry.NewRegistry()
	store.Instrument(reg)
	body, tail := fx.writes[:len(fx.writes)-tailInserts], fx.writes[len(fx.writes)-tailInserts:]
	var ins []float64
	for _, o := range body {
		t0 := time.Now()
		err := store.Insert(o)
		ins = append(ins, usSince(t0))
		e.op(err)
	}
	for _, o := range body {
		found, err := store.Delete(o.ID, o.Box)
		if err == nil && !found {
			err = e.mismatch("store delete %d found nothing", o.ID)
		}
		e.op(err)
	}
	e.setPct("durable.insert_p50_us", ins, 50)
	e.setPct("durable.insert_p99_us", ins, 99)
	var ckpt []float64
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		_, err := store.Checkpoint()
		ckpt = append(ckpt, time.Since(t0).Seconds())
		e.op(err)
	}
	e.setPct("durable.checkpoint_s", ckpt, 50)
	var text strings.Builder
	if err := reg.WriteText(&text); err != nil {
		return err
	}
	sc, err := telemetry.ParseText(text.String())
	if err != nil {
		return err
	}
	sum, _ := sc.Value("quasii_durable_checkpoint_pause_seconds_sum", nil)
	cnt, _ := sc.Value("quasii_durable_checkpoint_pause_seconds_count", nil)
	e.set("durable.checkpoint_pause_us", sum/max(cnt, 1)*1e6, int(cnt))

	for _, o := range tail {
		e.op(store.Insert(o))
	}
	rec, err := reopen(e, dir, fx, tail)
	if err != nil {
		return err
	}
	e.set("durable.restore_s", rec.restore, 1)
	e.set("durable.replay_records", float64(rec.replayed), 1)
	e.set("durable.disk_bytes_per_user_byte", rec.diskPerObj, 1)
	return nil
}

// walFixture times wal.Log.AppendInsert and Sync separately, one object
// per record.
func walFixture(e *env, writes []geom.Object) error {
	l, err := wal.Create(filepath.Join(e.tmp, "fixture.wal"), wal.SyncNever)
	if err != nil {
		return err
	}
	var app, sync []float64
	for _, o := range writes {
		t0 := time.Now()
		err := l.AppendInsert([]geom.Object{o})
		t1 := time.Now()
		e.op(err)
		serr := l.Sync()
		app = append(app, float64(t1.Sub(t0).Nanoseconds())/1e3)
		sync = append(sync, usSince(t1))
		e.op(serr)
	}
	e.setPct("wal.append_p50_us", app, 50)
	e.setPct("wal.sync_p50_us", sync, 50)
	return l.Close()
}
