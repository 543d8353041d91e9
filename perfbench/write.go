package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro"
	"repro/internal/durable"
	"repro/internal/geom"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// The mixed_write policy, stated once and used by every run and by the
// store fixture of the traced pass.
const (
	// arrivalRate is the open loop's request rate. Reads arrive about
	// 4 ms apart, well above a read's service time at the 2 ms coalescing
	// window, so the backlog does not grow.
	arrivalRate = 250
	// writeShare of the requests are updates; the rest are zipf queries.
	writeShare = 0.1
	// liveWrites is how many acknowledged inserts may be live before the
	// next update deletes the oldest instead of inserting, so the live
	// size stays flat.
	liveWrites = 16
	// checkpointEvery fires the store's automatic checkpoint several times
	// per run.
	checkpointEvery = 128
	// readPasses is how many times the /batch and /knn inputs are sent
	// after the load.
	readPasses = 5
	// zipfSkew is the skew of the zipf query centres.
	zipfSkew = 1.0
	// tailInserts are inserted after the final checkpoint, so the reopen
	// replays them from the WAL.
	tailInserts = 16
	// objectBytes is the size of one object's user data: six float64
	// coordinates and an int32 ID.
	objectBytes = 6*8 + 4
)

// storeOptions is the store configuration of mixed_write: every update is
// fsynced before it is acknowledged (FsyncAlways), and checkpoints run
// automatically every checkpointEvery updates. Bootstrap is set when data
// is non-nil.
func storeOptions(data []geom.Object, ckptEvery int) durable.Options {
	opts := durable.Options{Fsync: durable.FsyncAlways, CheckpointEvery: ckptEvery}
	if data != nil {
		opts.Bootstrap = func() []geom.Object { return data }
	}
	return opts
}

// serveStore opens a fresh store in dir bootstrapped from data and serves
// it on loopback with quasii-serve's defaults, updates going through the
// store's write-ahead log.
func serveStore(data []geom.Object, dir string, traced bool) (*system, error) {
	store, err := durable.Open(dir, storeOptions(data, checkpointEvery))
	if err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	srv := server.New(store.Index(), serverConfig(traced, reg, store))
	store.Instrument(reg)
	sys, err := listen(store.Index(), srv, store)
	if err != nil {
		store.Close()
	}
	return sys, err
}

// request is one scheduled request of the open loop.
type request struct {
	kind string // "query", "insert" or "delete"
	idx  int    // query pool index or write index
	due  time.Time
	// Filled by the worker that sends it; times are relative to the start
	// of the load so the post-run audit can order them.
	sent, done time.Duration
	body       []byte
	err        error
}

// writeState tracks when each write was sent and acknowledged, relative
// to the start of the load. Zero means never.
type writeState struct {
	insSent, insAck, delSent, delAck time.Duration
}

// runMixedWrite serves a durable store over loopback to an open loop of
// 90 % zipf range queries and 10 % updates at a fixed arrival rate.
// Updates insert fresh objects above the base IDs and delete them again
// later, so the live size stays flat while the WAL, fsync, version publish,
// the pending and tombstone deltas and checkpoints all run beside the
// reads. Latency is timed from each request's due time. After the load,
// one client issues /batch and /knn requests; the run ends by reopening a
// copy of the data directory and checking it against every acknowledged
// write.
func runMixedWrite(e *env) error {
	data := quasii.UniformDataset(e.sz.readObjects, e.seed)
	zipf := func(n int, seed int64) []geom.Box { return quasii.ZipfQueries(n, selectivity, zipfSkew, seed) }
	maxWrites := int(e.seconds*arrivalRate*writeShare*1.5) + tailInserts + 64
	in := newInputs(e, data, zipf, e.sz.queryPool, e.sz.knnPoints, maxWrites)
	in.encode()

	heap0 := heapAlloc()
	var dirs []string
	build := func() (*system, error) {
		dir := filepath.Join(e.tmp, fmt.Sprintf("data-%d", len(dirs)))
		dirs = append(dirs, dir)
		return serveStore(data, dir, false)
	}
	sys, setup, err := setUp(e, build)
	if err != nil {
		return err
	}
	defer sys.close()
	for _, d := range dirs[:len(dirs)-1] {
		os.RemoveAll(d)
	}

	load, states, next := openLoop(e, sys.url, in, e.deadline())
	live := liveSet(in.writes[:next], states)

	c := newClient(sys.url)
	defer c.close()
	// Several passes over the /batch and /knn inputs: the first meets the
	// index as the load left it, the later ones as those reads refined it,
	// so the medians do not hang on how far the load happened to crack.
	var batch, knn []float64
	for pass := 0; pass < readPasses; pass++ {
		b, k := socketReads(e, c, in, live)
		batch, knn = append(batch, b...), append(knn, k...)
	}

	// Close the run: a checkpoint (which also waits out any automatic one
	// in flight), then a tail of inserts that only the WAL holds, then a
	// reopen of a copy of the directory.
	if _, err := sys.store.Checkpoint(); err != nil {
		return err
	}
	for _, o := range in.writes[next : next+tailInserts] {
		_, err := c.post("/insert", insertBody(o))
		e.op(err)
		if err == nil {
			live = append(live, o)
		}
	}
	rec, err := reopen(e, sys.store.Dir(), in, live)
	if err != nil {
		return err
	}
	heap := (heapAlloc() - heap0) / (1 << 20)
	runtime.KeepAlive(sys)

	e.set("setup_s", setup, setupRuns)
	e.setPct("query_p50_us", load.query, 50)
	e.setPct("query_p99_us", load.query, 99)
	e.set("query_qps", float64(len(load.query))/load.seconds, len(load.query))
	e.setPct("batch_p50_us", batch, 50)
	e.setPct("knn_p50_us", knn, 50)
	e.setPct("insert_p50_us", load.insert, 50)
	e.setPct("insert_p99_us", load.insert, 99)
	e.setPct("delete_p50_us", load.delete, 50)
	e.set("recover_s", rec.seconds, restoreRuns)
	e.set("heap_mb", heap, 1)
	e.set("gen.late_p99_ms", percentile(load.late, 99)/1e3, len(load.late))
	fmt.Fprintf(e.out, "mixed_write: %d requests at %d/s, generator late p99 %.3f ms, %d replayed on reopen\n",
		len(load.late), arrivalRate, percentile(load.late, 99)/1e3, rec.replayed)
	if !e.trace {
		return nil
	}
	var st server.StatsResponse
	if err := c.get("/stats", &st); err != nil {
		return err
	}
	n := 0
	return runLadder(e, &ladder{
		in:        in,
		overhead:  median(load.traced) - median(load.untraced),
		occupancy: st.Batcher.AvgBatchSize,
		engine:    func() *shard.Index { return quasii.NewSharded(data, quasii.ShardedConfig{}) },
		serve: func(traced bool) (*system, error) {
			n++
			return serveStore(data, filepath.Join(e.tmp, fmt.Sprintf("ladder-%d", n)), traced)
		},
	})
}

// openLoopResult holds the latencies of the open loop, in microseconds,
// and how late the generator handed each request over.
type openLoopResult struct {
	loadResult
	insert, delete, late []float64
}

// openLoop sends requests at arrivalRate until deadline: reads on one
// connection, updates on the other, as a reading and a writing client
// would. Requests are due at evenly spaced times; one that finds its
// connection busy waits, and its latency counts from when it was due.
// Responses and the visibility of every write are checked once the load
// has stopped. It returns the write states and how many writes were used.
func openLoop(e *env, url string, in *inputs, deadline time.Time) (openLoopResult, []writeState, int) {
	var out openLoopResult
	start := time.Now()
	total := int(deadline.Sub(start).Seconds() * arrivalRate)
	reqs := make([]request, total)
	states := make([]writeState, len(in.writes))
	// The queues can hold every request of the run, so the generator never
	// blocks on them: a stalled connection delays requests, not the schedule.
	reads, updates := make(chan int, total), make(chan int, total)
	var mu sync.Mutex
	var acked []int // inserted writes acknowledged and not yet scheduled for delete
	send := func(cl *client, k int) {
		r := &reqs[k]
		var path string
		var body []byte
		switch r.kind {
		case "query":
			path, body = "/query", in.qBody[r.idx]
		case "insert":
			path, body = "/insert", in.insBody[r.idx]
		default:
			path, body = "/delete", in.delBody[r.idx]
		}
		t0 := time.Now()
		r.body, r.err = cl.post(path, body)
		t1 := time.Now()
		r.sent, r.done = t0.Sub(start), t1.Sub(start)
		if e.trace && r.kind == "query" && k%2 == 0 {
			// Every other query carries a span, so the traced and
			// untraced halves give the tracing overhead.
			e.spans.add("e2e.query", k, 0, r.due, t1)
		}
		switch r.kind {
		case "insert":
			states[r.idx].insSent, states[r.idx].insAck = r.sent, r.done
			if r.err == nil {
				mu.Lock()
				acked = append(acked, r.idx)
				mu.Unlock()
			}
		case "delete":
			states[r.idx].delSent, states[r.idx].delAck = r.sent, r.done
		}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		cl := newClient(url)
		defer cl.close()
		for k := range reads {
			send(cl, k)
		}
	}()
	go func() {
		defer wg.Done()
		cl := newClient(url)
		defer cl.close()
		for k := range updates {
			send(cl, k)
		}
	}()
	rng := rand.New(rand.NewSource(e.seed * 17))
	next := 0 // next unused write
	for k := range reqs {
		r := &reqs[k]
		r.due = start.Add(time.Duration(float64(k) / arrivalRate * float64(time.Second)))
		time.Sleep(time.Until(r.due))
		out.late = append(out.late, usSince(r.due))
		r.kind, r.idx = "query", rng.Intn(len(in.queries))
		if rng.Float64() < writeShare {
			mu.Lock()
			if len(acked) >= liveWrites {
				r.kind, r.idx = "delete", acked[0]
				acked = acked[1:]
			} else if next < len(in.writes)-tailInserts {
				r.kind, r.idx = "insert", next
				next++
			}
			mu.Unlock()
		}
		if r.kind == "query" {
			reads <- k
		} else {
			updates <- k
		}
	}
	close(reads)
	close(updates)
	wg.Wait()
	out.seconds = time.Since(start).Seconds()

	for k := range reqs {
		r := &reqs[k]
		err := r.err
		if err == nil {
			err = checkOpenLoop(e, in, r, states)
		}
		e.op(err)
		if err != nil {
			continue
		}
		us := float64(start.Add(r.done).Sub(r.due).Nanoseconds()) / 1e3
		switch r.kind {
		case "query":
			out.query = append(out.query, us)
			if k%2 == 0 {
				out.traced = append(out.traced, us)
			} else {
				out.untraced = append(out.untraced, us)
			}
		case "insert":
			out.insert = append(out.insert, us)
		default:
			out.delete = append(out.delete, us)
		}
	}
	return out, states, next
}

// checkOpenLoop checks one answered request of the open loop. A query
// must return exactly the reference base IDs; of the benchmark's writes it
// must return every one acknowledged before it was sent and not yet being
// deleted when it was answered, and none that was deleted before it was
// sent or inserted after it was answered. Writes in flight meanwhile may
// go either way.
func checkOpenLoop(e *env, in *inputs, r *request, states []writeState) error {
	switch r.kind {
	case "insert":
		return nil
	case "delete":
		found, err := decodeDeleted(r.body)
		if err == nil && !found {
			err = e.mismatch("delete %d found nothing", in.writes[r.idx].ID)
		}
		return err
	}
	ids, err := decodeIDs(r.body)
	if err != nil {
		return err
	}
	q := in.queries[r.idx]
	base, written := splitWrites(ids, nil)
	if base != in.qRef[r.idx] {
		return e.mismatch("/query %d: %d base results, reference has %d", r.idx, base.n, in.qRef[r.idx].n)
	}
	seen := map[int32]bool{}
	for _, id := range written {
		w := int(id - writeIDBase)
		if w < 0 || w >= len(states) || seen[id] {
			return e.mismatch("/query %d: unexpected object %d", r.idx, id)
		}
		seen[id] = true
		st := states[w]
		if !in.writes[w].Box.Intersects(q) || st.insSent == 0 || st.insSent > r.done ||
			(st.delAck != 0 && st.delAck < r.sent) {
			return e.mismatch("/query %d: object %d should not be visible", r.idx, id)
		}
	}
	for w, st := range states {
		o := in.writes[w]
		if st.insAck != 0 && st.insAck < r.sent && (st.delSent == 0 || st.delSent > r.done) &&
			o.Box.Intersects(q) && !seen[o.ID] {
			return e.mismatch("/query %d: acknowledged insert %d missing", r.idx, o.ID)
		}
	}
	return nil
}

// liveSet returns the writes whose insert was acknowledged and that were
// not deleted.
func liveSet(writes []geom.Object, states []writeState) []geom.Object {
	var live []geom.Object
	for i, o := range writes {
		if states[i].insAck != 0 && states[i].delSent == 0 {
			live = append(live, o)
		}
	}
	return live
}

// socketReads runs every /batch and /knn input once on one connection
// while the writes in live are the only ones present, checking each
// answer, and returns their latencies.
func socketReads(e *env, c *client, in *inputs, live []geom.Object) (batch, knn []float64) {
	for i := range in.batches {
		t0 := time.Now()
		b, err := c.post("/batch", in.bBody[i])
		us := usSince(t0)
		if err == nil {
			err = checkBatch(e, b, in, i, live)
		}
		e.op(err)
		if err == nil {
			batch = append(batch, us)
		}
	}
	for i, p := range in.knnPts {
		t0 := time.Now()
		b, err := c.post("/knn", in.kBody[i])
		us := usSince(t0)
		if err == nil {
			var nn []server.NeighborJSON
			if nn, err = decodeKNN(b); err == nil {
				got := make([]neighbor, len(nn))
				for j, n := range nn {
					got[j] = neighbor{n.ID, n.DistSq}
				}
				err = e.checkKNN(fmt.Sprintf("/knn %d", i), got, in.kRef[i], p, in.data, live)
			}
		}
		e.op(err)
		if err == nil {
			knn = append(knn, us)
		}
	}
	return batch, knn
}

func checkBatch(e *env, b []byte, in *inputs, i int, live []geom.Object) error {
	res, err := decodeBatch(b)
	if err != nil {
		return err
	}
	if len(res) != len(in.batches[i]) {
		return e.mismatch("/batch %d: %d results for %d queries", i, len(res), len(in.batches[i]))
	}
	for j, ids := range res {
		if err := e.checkRange(fmt.Sprintf("/batch %d.%d", i, j), ids, in.bRef[i][j], in.batches[i][j], live); err != nil {
			return err
		}
	}
	return nil
}

// recovery is what reopening a copy of a data directory showed.
type recovery struct {
	seconds    float64 // median OpenStore time
	restore    float64 // RecoveryInfo's restore time of the last reopen
	replayed   int64   // WAL records the last reopen replayed
	diskPerObj float64 // data-directory bytes per byte of live user data
}

// reopen copies the quiescent data directory dir restoreRuns times and
// times OpenStore on each copy. The last recovered store must hold exactly
// the base data plus the live writes: same size, every live write visible,
// every other write gone, and a sample of the queries answered like the
// reference.
func reopen(e *env, dir string, in *inputs, live []geom.Object) (recovery, error) {
	var rec recovery
	size, err := dirBytes(dir)
	if err != nil {
		return rec, err
	}
	rec.diskPerObj = float64(size) / float64((len(in.data)+len(live))*objectBytes)
	var times []float64
	var store *durable.Store
	var prev string
	for i := 0; i < restoreRuns; i++ {
		// Each copy gets a fresh directory: files left over from another
		// store would be restored too.
		cp, err := os.MkdirTemp(e.tmp, "reopen-")
		if err != nil {
			return rec, err
		}
		if err := copyDir(dir, cp); err != nil {
			return rec, err
		}
		if store != nil {
			store.Close()
			os.RemoveAll(prev)
		}
		prev = cp
		t0 := time.Now()
		store, err = durable.Open(cp, storeOptions(nil, checkpointEvery))
		times = append(times, time.Since(t0).Seconds())
		e.op(err)
		if err != nil {
			return rec, err
		}
	}
	defer store.Close()
	rec.seconds = median(times)
	_, replayed, _, restore := store.RecoveryInfo()
	rec.replayed, rec.restore = replayed, restore

	ix := store.Index()
	if n := ix.Len(); n != len(in.data)+len(live) {
		e.op(e.mismatch("reopened store holds %d objects, acknowledged state has %d", n, len(in.data)+len(live)))
	}
	isLive := map[int32]bool{}
	for _, o := range live {
		isLive[o.ID] = true
	}
	var buf []int32
	for _, o := range in.writes {
		buf = ix.Query(o.Box, buf[:0])
		if contains(buf, o.ID) != isLive[o.ID] {
			e.op(e.mismatch("reopened store: write %d visible=%v, acknowledged live=%v", o.ID, !isLive[o.ID], isLive[o.ID]))
		}
	}
	for i := 0; i < len(in.queries); i += 1 + len(in.queries)/256 {
		buf = ix.Query(in.queries[i], buf[:0])
		e.op(e.checkRange(fmt.Sprintf("reopened query %d", i), buf, in.qRef[i], in.queries[i], live))
	}
	return rec, nil
}

// copyDir copies the regular files under src to dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
