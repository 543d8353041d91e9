// Command perfbench is the repository's whole-stack benchmark. It runs one
// workload against the QUASII engine, checks every answer against a
// reference computed before timing starts, and prints its metrics as one
// JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload converged_read --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the object carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a separate traced pass (see
// ladder.go), and the spans recorded on the way are written to
// .bench_build/spans. BENCHMARK.json at the repository root lists the
// workloads and metrics and explains why each exists.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(*env) error{
	"converged_read": runConvergedRead,
	"mixed_write":    runMixedWrite,
}

// Units of the metrics; each metric name is bound to one unit here so a
// name can never be printed with two different units.
var units = map[string]string{
	"setup_s": "s", "recover_s": "s", "heap_mb": "MiB", "query_qps": "1/s",
	"query_p50_us": "us", "query_p99_us": "us", "batch_p50_us": "us", "knn_p50_us": "us",
	"insert_p50_us": "us", "insert_p99_us": "us", "delete_p50_us": "us",

	"transport.query_overhead_p50_us":  "us",
	"server.query_handler_p50_us":      "us",
	"server.batch_handler_p50_us":      "us",
	"server.coalesce_wait_p50_us":      "us",
	"server.batch_occupancy_mean":      "queries",
	"server.insert_handler_p50_us":     "us",
	"shard.query_p50_us":               "us",
	"shard.query_p99_us":               "us",
	"shard.batch_p50_us":               "us",
	"shard.knn_p50_us":                 "us",
	"shard.shared_ratio":               "ratio",
	"shard.insert_p50_us":              "us",
	"shard.delete_p50_us":              "us",
	"shard.flush_ms":                   "ms",
	"core.query_cold_p50_us":           "us",
	"core.query_converged_p50_us":      "us",
	"core.query_delta_p50_us":          "us",
	"core.query_after_flush_p50_us":    "us",
	"core.delete_p50_us":               "us",
	"core.cracked_objects_per_query":   "count",
	"core.tested_per_result":           "ratio",
	"core.slices_refined":              "count",
	"colstore.partition_ns_per_row":    "ns",
	"colstore.scan_ns_per_row":         "ns",
	"durable.insert_p50_us":            "us",
	"durable.insert_p99_us":            "us",
	"durable.checkpoint_s":             "s",
	"durable.checkpoint_pause_us":      "us",
	"durable.restore_s":                "s",
	"durable.replay_records":           "count",
	"durable.disk_bytes_per_user_byte": "ratio",
	"wal.append_p50_us":                "us",
	"wal.sync_p50_us":                  "us",
	"gen.late_p99_ms":                  "ms",
	"trace.overhead_query_p50_us":      "us",
}

// endToEnd lists the metrics every plain run prints, in BENCHMARK.json order.
// endToEnd lists the metrics every plain run declares. Runs also measure
// query_p99_us, batch_p50_us, knn_p50_us, insert_p50_us, insert_p99_us,
// delete_p50_us and recover_s and print them to standard error, but do not
// declare them: on a shared 2-vCPU host those CPU-bound timings drift by
// more than a quarter between runs minutes apart, wider than any bound a
// regression gate could use. The declared four are dominated by the
// server's coalescing timer, the arrival schedule, or allocation.
var endToEnd = []string{"setup_s", "query_p50_us", "query_qps", "heap_mb"}

// perLayer lists the metrics every traced run prints.
var perLayer = []string{
	"transport.query_overhead_p50_us", "server.query_handler_p50_us",
	"server.batch_handler_p50_us", "server.coalesce_wait_p50_us",
	"server.batch_occupancy_mean", "server.insert_handler_p50_us",
	"shard.query_p50_us", "shard.query_p99_us", "shard.batch_p50_us", "shard.knn_p50_us",
	"shard.shared_ratio", "shard.insert_p50_us", "shard.delete_p50_us", "shard.flush_ms",
	"core.query_cold_p50_us", "core.query_converged_p50_us", "core.query_delta_p50_us",
	"core.query_after_flush_p50_us", "core.delete_p50_us", "core.cracked_objects_per_query",
	"core.tested_per_result", "core.slices_refined",
	"colstore.partition_ns_per_row", "colstore.scan_ns_per_row",
	"durable.insert_p50_us", "durable.insert_p99_us", "durable.checkpoint_s",
	"durable.checkpoint_pause_us", "durable.restore_s", "durable.replay_records",
	"durable.disk_bytes_per_user_byte", "wal.append_p50_us", "wal.sync_p50_us",
	"gen.late_p99_ms", "trace.overhead_query_p50_us",
}

// sizes fixes the input sizes of a run. The full sizes are the benchmark;
// the tiny ones exist for the self-tests.
type sizes struct {
	readObjects   int // uniform objects (fit in L3)
	queryPool     int // distinct range queries per workload
	batches       int // distinct /batch requests of batchSize queries
	knnPoints     int // distinct kNN points
	writes        int // insert/delete pairs of a write probe
	ladderQueries int // range queries replayed down the ladder
	flushPending  int // pending inserts before a measured Flush
	tombstones    int // tombstones a core.delete run grows to
}

var fullSizes = sizes{
	readObjects: 200_000,
	queryPool:   8192, batches: 64, knnPoints: 512, writes: 2048, ladderQueries: 2000,
	flushPending: 4096, tombstones: 16_384,
}

var tinySizes = sizes{
	readObjects: 5_000,
	queryPool:   256, batches: 8, knnPoints: 32, writes: 32, ladderQueries: 100,
	flushPending: 256, tombstones: 2_048,
}

const (
	selectivity = 1e-4
	batchSize   = 64
	knnK        = 10
	// writeIDBase is the first ID of the objects the benchmark inserts; the
	// generated datasets stay far below it, so a result ID at or above it
	// is one of the benchmark's own writes.
	writeIDBase int32 = 1 << 30
)

// env is the state of one run: its flags, the temporary directory, the
// outcome tallies and the metrics gathered so far.
type env struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sz       sizes
	// corrupt flips one precomputed reference answer, so the self-test can
	// show that a wrong reference fails the run.
	corrupt bool

	tmp   string // scratch directory inside the checkout, removed at exit
	out   io.Writer
	spans *spanLog

	attempted, failed int64
	mismatches        []string
	metrics           map[string]float64
	counts            map[string]int // sample count behind each timing
}

// op counts one attempted operation and, when err is non-nil, one failure.
// A wrong answer arrives here as the error mismatch returned.
func (e *env) op(err error) {
	e.attempted++
	if err != nil {
		e.failed++
		if e.failed <= 20 {
			fmt.Fprintf(e.out, "operation failed: %v\n", err)
		}
	}
}

// mismatch records a wrong answer, which fails the run, and returns it as
// the error of the operation that produced it.
func (e *env) mismatch(format string, args ...any) error {
	err := fmt.Errorf("%w: %s", errMismatch, fmt.Sprintf(format, args...))
	e.mismatches = append(e.mismatches, err.Error())
	return err
}

// set records a metric value together with the number of samples behind it.
func (e *env) set(name string, v float64, n int) {
	if _, ok := units[name]; !ok {
		panic("unknown metric " + name)
	}
	e.metrics[name] = v
	e.counts[name] = n
}

// setPct records percentile p (0..100) of samples s as metric name.
func (e *env) setPct(name string, s []float64, p float64) {
	e.set(name, percentile(s, p), len(s))
}

// deadline returns when the measured phase that starts now must end.
func (e *env) deadline() time.Time {
	return time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs one workload and prints the result. It returns the
// process exit code: 0 only for a complete, correct run.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: converged_read or mixed_write")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end run")
	scale := fs.String("scale", "full", "input sizes: full, or tiny for the self-tests")
	corrupt := fs.Bool("corrupt-reference", false, "flip one reference answer (self-test)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	e := &env{
		workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, corrupt: *corrupt,
		out: stderr, metrics: map[string]float64{}, counts: map[string]int{},
	}
	switch *scale {
	case "full":
		e.sz = fullSizes
	case "tiny":
		e.sz = tinySizes
	default:
		fmt.Fprintf(stderr, "perfbench: unknown --scale %q\n", *scale)
		return 2
	}
	base := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	tmp, err := os.MkdirTemp(base, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	e.tmp = tmp
	defer os.RemoveAll(tmp)
	if e.trace {
		e.spans = newSpanLog()
	}

	err = runner(e)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if e.trace {
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		if err := e.spans.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "%d spans written to %s\n", e.spans.len(), path)
	}
	want := endToEnd
	if e.trace {
		want = perLayer
	}
	res := result{Correct: len(e.mismatches) == 0, Attempted: e.attempted, Failed: e.failed,
		Metrics: map[string]metric{}}
	for _, m := range want {
		v, ok := e.metrics[m]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: %s: metric %s was not measured\n", *name, m)
			return 1
		}
		res.Metrics[m] = metric{Value: v, Unit: units[m]}
		fmt.Fprintf(stderr, "%-34s %14.4f %-8s n=%d\n", m, v, units[m], e.counts[m])
	}
	var extra []string
	for m := range e.metrics {
		if _, ok := res.Metrics[m]; !ok {
			extra = append(extra, m)
		}
	}
	sort.Strings(extra)
	for _, m := range extra {
		fmt.Fprintf(stderr, "%-34s %14.4f %-8s n=%d (not declared)\n", m, e.metrics[m], units[m], e.counts[m])
	}
	if res.Attempted < 1 {
		fmt.Fprintf(stderr, "perfbench: %s: no operation attempted\n", *name)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %s: %d wrong answers\n", *name, len(e.mismatches))
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// percentile returns the p-th percentile (0..100) of s by linear
// interpolation between closest ranks; s is not modified.
func percentile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	r := p / 100 * float64(len(c)-1)
	lo := int(r)
	if lo >= len(c)-1 {
		return c[len(c)-1]
	}
	return c[lo] + (r-float64(lo))*(c[lo+1]-c[lo])
}

func median(s []float64) float64 { return percentile(s, 50) }

// usSince returns the microseconds elapsed since t0.
func usSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e3 }

// heapAlloc returns the bytes of Go heap in use after a forced GC. The
// heap_mb metric is the difference between a reading taken with the system
// under test alive at the end of the run and one taken just before its
// set-up, so the benchmark's own inputs and references cancel out.
func heapAlloc() float64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// errMismatch marks an answer that differs from its reference.
var errMismatch = errors.New("wrong answer")
