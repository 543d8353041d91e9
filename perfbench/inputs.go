package main

import (
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro"
	"repro/internal/geom"
	"repro/internal/shard"
)

// inputs are the generated requests of one workload with their reference
// answers, all computed before anything is timed.
type inputs struct {
	data []geom.Object // base objects; data[i].ID == i
	ref  *sweep

	queries []geom.Box
	qRef    []answer
	batches [][]geom.Box
	bRef    [][]answer
	knnPts  []geom.Point
	kRef    []knnRef
	writes  []geom.Object // fresh objects, IDs from writeIDBase

	// Pre-encoded HTTP bodies, filled by encode.
	qBody, bBody, kBody, insBody, delBody [][]byte
}

// newInputs derives every request of a workload from its seed: a pool of
// range queries from gen, and /batch requests, kNN points and writes drawn
// from that pool, so that they land where the workload's queries go and
// later reads see the writes.
func newInputs(e *env, data []geom.Object, gen func(n int, seed int64) []geom.Box, nQueries, nKNN, nWrites int) *inputs {
	for i := range data {
		if data[i].ID != int32(i) {
			panic("dataset IDs must equal positions")
		}
	}
	in := &inputs{data: data, ref: newSweep(data)}
	in.queries = gen(nQueries, e.seed+1)
	in.qRef = references(in.ref, in.queries)
	rng := rand.New(rand.NewSource(e.seed + 2))
	for i := 0; i < e.sz.batches; i++ {
		var b []geom.Box
		var r []answer
		for j := 0; j < batchSize; j++ {
			k := rng.Intn(nQueries)
			b, r = append(b, in.queries[k]), append(r, in.qRef[k])
		}
		in.batches, in.bRef = append(in.batches, b), append(in.bRef, r)
	}
	for i := 0; i < nKNN; i++ {
		in.knnPts = append(in.knnPts, in.queries[rng.Intn(nQueries)].Center())
	}
	in.kRef = make([]knnRef, nKNN)
	parallel(nKNN, func(i int, buf []int32) []int32 {
		in.kRef[i] = nearestRef(data, in.knnPts[i], knnK)
		return buf
	})
	near := make([]geom.Box, nWrites)
	for i := range near {
		near[i] = in.queries[rng.Intn(nQueries)]
	}
	in.writes = writeObjects(near, 0, e.seed+3)
	if e.corrupt {
		in.qRef[0].sum ^= 1
	}
	return in
}

// writeObjects returns one fresh object inside each box, with IDs from
// writeIDBase+first and sides of 1 to 10 like the generated datasets.
func writeObjects(near []geom.Box, first int32, seed int64) []geom.Object {
	rng := rand.New(rand.NewSource(seed))
	out := make([]geom.Object, len(near))
	for i, b := range near {
		side := 1 + rng.Float64()*9
		out[i] = geom.Object{ID: writeIDBase + first + int32(i), Box: geom.BoxAt(b.Center(), side)}
	}
	return out
}

// encode pre-encodes the HTTP bodies of every request.
func (in *inputs) encode() {
	for _, q := range in.queries {
		in.qBody = append(in.qBody, queryBody(q))
	}
	for _, b := range in.batches {
		in.bBody = append(in.bBody, batchBody(b))
	}
	for _, p := range in.knnPts {
		in.kBody = append(in.kBody, knnBody(p))
	}
	for _, o := range in.writes {
		in.insBody = append(in.insBody, insertBody(o))
		in.delBody = append(in.delBody, deleteBody(o))
	}
}

// libraryReads runs every /batch and kNN input once through the library
// surface, checking each answer, and returns their latencies.
func libraryReads(e *env, ix *shard.Index, in *inputs) (batch, knn []float64) {
	for i, b := range in.batches {
		t0 := time.Now()
		res := ix.QueryBatch(b)
		batch = append(batch, usSince(t0))
		var err error
		for j := range res {
			if err == nil {
				err = e.checkRange("batch", res[j], in.bRef[i][j], b[j], nil)
			}
		}
		shard.RecycleResults(res)
		e.op(err)
	}
	for i, p := range in.knnPts {
		t0 := time.Now()
		nn, err := ix.KNN(p, knnK)
		knn = append(knn, usSince(t0))
		if err == nil {
			got := make([]neighbor, len(nn))
			for j, n := range nn {
				got[j] = neighbor{n.ID, n.DistSq}
			}
			err = e.checkKNN("knn", got, in.kRef[i], p, in.data, nil)
		}
		e.op(err)
	}
	return batch, knn
}

// libraryWrites inserts every write through the library surface, checks
// that a read right after each acknowledgement sees it, then deletes each
// one and checks that it is gone. It returns the write latencies.
func libraryWrites(e *env, ix *shard.Index, writes []geom.Object) (ins, del []float64) {
	var buf []int32
	for _, o := range writes {
		t0 := time.Now()
		err := ix.Insert(o)
		ins = append(ins, usSince(t0))
		if err == nil {
			buf = ix.Query(o.Box, buf[:0])
			if !contains(buf, o.ID) {
				err = e.mismatch("insert %d acknowledged but not visible", o.ID)
			}
		}
		e.op(err)
	}
	for _, o := range writes {
		t0 := time.Now()
		found, err := ix.Delete(o.ID, o.Box)
		del = append(del, usSince(t0))
		if err == nil && !found {
			err = e.mismatch("delete %d found nothing", o.ID)
		}
		if err == nil {
			buf = ix.Query(o.Box, buf[:0])
			if contains(buf, o.ID) {
				err = e.mismatch("delete %d acknowledged but still visible", o.ID)
			}
		}
		e.op(err)
	}
	return ins, del
}

func contains(ids []int32, id int32) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// restoreRuns is how many times recover_s restores the same snapshot.
const restoreRuns = 7

// recoverSnapshot writes ix to a snapshot and times RestoreSharded on it
// restoreRuns times; the last restored engine must answer a sample of the
// queries like the reference. It returns the median restore time.
func recoverSnapshot(e *env, ix *shard.Index, in *inputs) (float64, error) {
	dir := filepath.Join(e.tmp, "snapshot")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	if err := ix.Snapshot(dir); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	var times []float64
	var restored *shard.Index
	for i := 0; i < restoreRuns; i++ {
		restored = nil
		t0 := time.Now()
		r, err := quasii.RestoreSharded(dir, quasii.ShardedConfig{})
		times = append(times, time.Since(t0).Seconds())
		e.op(err)
		if err != nil {
			return 0, err
		}
		restored = r
	}
	var buf []int32
	for i := 0; i < len(in.queries); i += 1 + len(in.queries)/256 {
		buf = restored.Query(in.queries[i], buf[:0])
		e.op(e.checkRange("restored query "+strconv.Itoa(i), buf, in.qRef[i], in.queries[i], nil))
	}
	return median(times), nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}
