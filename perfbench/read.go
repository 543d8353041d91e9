package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro"
	"repro/internal/geom"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// setupRuns is how many times a server workload sets its system up; the
// first ones are torn down again and setup_s is their median.
const setupRuns = 7

// serveEngine wires a server with quasii-serve's defaults over ix and
// serves it on loopback.
func serveEngine(ix *shard.Index, traced bool) (*system, error) {
	return listen(ix, server.New(ix, serverConfig(traced, telemetry.NewRegistry(), nil)), nil)
}

// runConvergedRead serves a converged index over loopback to two
// closed-loop clients mixing singleton /query, /batch of 64 and /knn.
// The data fits in L3 and no request cracks, so the transport, the server
// and its coalescer, and the converged walk and shard fan-out are what the
// run measures. After the load, one client inserts and deletes through the
// socket and the engine is snapshotted and restored, so the write and
// recovery metrics are measured on the same system.
func runConvergedRead(e *env) error {
	data := quasii.UniformDataset(e.sz.readObjects, e.seed)
	uniform := func(n int, seed int64) []geom.Box { return quasii.UniformQueries(n, selectivity, seed) }
	in := newInputs(e, data, uniform, e.sz.queryPool, e.sz.knnPoints, e.sz.writes)
	in.encode()

	heap0 := heapAlloc()
	build := func() (*system, error) {
		ix := quasii.NewSharded(data, quasii.ShardedConfig{})
		ix.Complete()
		return serveEngine(ix, false)
	}
	sys, setup, err := setUp(e, build)
	if err != nil {
		return err
	}
	defer sys.close()

	load := closedLoop(e, sys.url, in, e.deadline())
	c := newClient(sys.url)
	defer c.close()
	ins, del := socketWrites(e, c, in)
	recoverS, err := recoverSnapshot(e, sys.ix, in)
	if err != nil {
		return err
	}
	heap := (heapAlloc() - heap0) / (1 << 20)
	runtime.KeepAlive(sys)

	e.set("setup_s", setup, setupRuns)
	e.setPct("query_p50_us", load.query, 50)
	e.setPct("query_p99_us", load.query, 99)
	e.set("query_qps", float64(len(load.query))/load.seconds, len(load.query))
	e.setPct("batch_p50_us", load.batch, 50)
	e.setPct("knn_p50_us", load.knn, 50)
	e.setPct("insert_p50_us", ins, 50)
	e.setPct("insert_p99_us", ins, 99)
	e.setPct("delete_p50_us", del, 50)
	e.set("recover_s", recoverS, restoreRuns)
	e.set("heap_mb", heap, 1)
	if !e.trace {
		return nil
	}
	var st server.StatsResponse
	if err := c.get("/stats", &st); err != nil {
		return err
	}
	return runLadder(e, &ladder{
		in:        in,
		overhead:  median(load.traced) - median(load.untraced),
		occupancy: st.Batcher.AvgBatchSize,
		engine: func() *shard.Index {
			ix := quasii.NewSharded(data, quasii.ShardedConfig{})
			ix.Complete()
			return ix
		},
		serve: func(traced bool) (*system, error) {
			ix := quasii.NewSharded(data, quasii.ShardedConfig{})
			ix.Complete()
			return serveEngine(ix, traced)
		},
	})
}

// setUp builds the workload's system setupRuns times, keeping the last
// one, and returns it with the median set-up time.
func setUp(e *env, build func() (*system, error)) (*system, float64, error) {
	var times []float64
	var sys *system
	for i := 0; i < setupRuns; i++ {
		if sys != nil {
			if err := sys.close(); err != nil {
				return nil, 0, err
			}
			sys = nil
			runtime.GC()
		}
		t0 := time.Now()
		s, err := build()
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		sys = s
	}
	return sys, median(times), nil
}

// loadResult holds the latencies of a load phase, in microseconds.
type loadResult struct {
	query, batch, knn []float64
	// traced and untraced split the query latencies of a traced run by
	// whether the request carried a span.
	traced, untraced []float64
	seconds          float64 // length of the load phase
}

// sample is one request of the closed loop, checked after the loop ends.
type sample struct {
	kind string // "query", "batch" or "knn"
	idx  int
	us   float64
	body []byte
	err  error
}

// Shares of the closed-loop mix: 80 % /query, 10 % /batch, 10 % /knn.
const (
	shareQuery = 0.8
	shareBatch = 0.1
)

// closedLoop runs two clients, each on its own connection, that send their
// next request as soon as the previous one is answered, until deadline.
// Responses are checked once the clients have stopped.
func closedLoop(e *env, url string, in *inputs, deadline time.Time) loadResult {
	const clients = 2
	results := make([][]sample, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(url)
			defer cl.close()
			rng := rand.New(rand.NewSource(e.seed*31 + int64(c)))
			for n := 0; time.Now().Before(deadline); n++ {
				var s sample
				var path string
				var body []byte
				switch r := rng.Float64(); {
				case r < shareQuery:
					s.kind, s.idx = "query", rng.Intn(len(in.queries))
					path, body = "/query", in.qBody[s.idx]
				case r < shareQuery+shareBatch:
					s.kind, s.idx = "batch", rng.Intn(len(in.batches))
					path, body = "/batch", in.bBody[s.idx]
				default:
					s.kind, s.idx = "knn", rng.Intn(len(in.knnPts))
					path, body = "/knn", in.kBody[s.idx]
				}
				t0 := time.Now()
				s.body, s.err = cl.post(path, body)
				t1 := time.Now()
				s.us = float64(t1.Sub(t0).Nanoseconds()) / 1e3
				if e.trace && s.kind == "query" && n%2 == 0 {
					e.spans.add("e2e.query", s.idx, 0, t0, t1)
				}
				results[c] = append(results[c], s)
			}
		}(c)
	}
	wg.Wait()
	var out loadResult
	out.seconds = time.Since(start).Seconds()
	for c := range results {
		for n, s := range results[c] {
			err := s.err
			if err == nil {
				err = checkResponse(e, in, s)
			}
			e.op(err)
			if err != nil {
				continue
			}
			switch s.kind {
			case "query":
				out.query = append(out.query, s.us)
				if n%2 == 0 {
					out.traced = append(out.traced, s.us)
				} else {
					out.untraced = append(out.untraced, s.us)
				}
			case "batch":
				out.batch = append(out.batch, s.us)
			case "knn":
				out.knn = append(out.knn, s.us)
			}
		}
	}
	return out
}

// checkResponse checks one answered request of the read-only mix.
func checkResponse(e *env, in *inputs, s sample) error {
	switch s.kind {
	case "query":
		ids, err := decodeIDs(s.body)
		if err != nil {
			return err
		}
		return e.checkRange(fmt.Sprintf("/query %d", s.idx), ids, in.qRef[s.idx], in.queries[s.idx], nil)
	case "batch":
		res, err := decodeBatch(s.body)
		if err != nil {
			return err
		}
		if len(res) != len(in.batches[s.idx]) {
			return e.mismatch("/batch %d: %d results for %d queries", s.idx, len(res), len(in.batches[s.idx]))
		}
		for j, ids := range res {
			if err := e.checkRange(fmt.Sprintf("/batch %d.%d", s.idx, j), ids, in.bRef[s.idx][j], in.batches[s.idx][j], nil); err != nil {
				return err
			}
		}
		return nil
	default:
		nn, err := decodeKNN(s.body)
		if err != nil {
			return err
		}
		got := make([]neighbor, len(nn))
		for j, n := range nn {
			got[j] = neighbor{n.ID, n.DistSq}
		}
		return e.checkKNN(fmt.Sprintf("/knn %d", s.idx), got, in.kRef[s.idx], in.knnPts[s.idx], in.data, nil)
	}
}

// socketWrites inserts every write through the socket, checks that a
// /query right after each acknowledgement sees it, then deletes each one
// and checks that it is gone. It returns the acknowledgement latencies.
func socketWrites(e *env, c *client, in *inputs) (ins, del []float64) {
	visible := func(o geom.Object) (bool, error) {
		b, err := c.post("/query", queryBody(o.Box))
		if err != nil {
			return false, err
		}
		ids, err := decodeIDs(b)
		return contains(ids, o.ID), err
	}
	for i, o := range in.writes {
		t0 := time.Now()
		_, err := c.post("/insert", in.insBody[i])
		ins = append(ins, usSince(t0))
		if err == nil {
			var ok bool
			if ok, err = visible(o); err == nil && !ok {
				err = e.mismatch("insert %d acknowledged but not visible", o.ID)
			}
		}
		e.op(err)
	}
	for i, o := range in.writes {
		t0 := time.Now()
		b, err := c.post("/delete", in.delBody[i])
		del = append(del, usSince(t0))
		if err == nil {
			var found bool
			if found, err = decodeDeleted(b); err == nil && !found {
				err = e.mismatch("delete %d found nothing", o.ID)
			}
		}
		if err == nil {
			var ok bool
			if ok, err = visible(o); err == nil && ok {
				err = e.mismatch("delete %d acknowledged but still visible", o.ID)
			}
		}
		e.op(err)
	}
	return ins, del
}
