package bench

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/scan"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/workload"
)

// startServer mounts the serving subsystem over a fresh sharded index.
func startServer(tb testing.TB, n int, cfg server.Config) (*httptest.Server, []geom.Object) {
	tb.Helper()
	data := dataset.Uniform(n, 111)
	ix := shard.New(data, shard.Config{Shards: 4})
	ts := httptest.NewServer(server.New(ix, cfg).Handler())
	tb.Cleanup(ts.Close)
	return ts, data
}

// TestLoadgenSustainedMixedLoad is the acceptance run: 10k queries from 8
// concurrent clients with interleaved insert/delete cycles, every response
// checked against the scan oracle, zero mismatches allowed. Run with -race.
func TestLoadgenSustainedMixedLoad(t *testing.T) {
	ts, data := startServer(t, 20000, server.Config{
		BatchWindow: 200 * time.Microsecond,
		FlushEvery:  256,
	})
	oracle := scan.New(data)
	res := RunLoadgen(LoadgenConfig{
		BaseURL:    ts.URL,
		Clients:    8,
		Queries:    workload.Uniform(dataset.Universe(), 10000, 1e-4, 17),
		Oracle:     func(q geom.Box) []int32 { return oracle.Query(q, nil) },
		WriteEvery: 50,
	})
	PrintLoadgen(io.Discard, res) // exercise the printer
	if res.Queries != 10000 {
		t.Errorf("completed %d/10000 queries", res.Queries)
	}
	if res.Mismatches != 0 {
		t.Errorf("%d oracle mismatches", res.Mismatches)
	}
	if res.Errors != 0 {
		t.Errorf("%d errors", res.Errors)
	}
	if res.Writes == 0 {
		t.Error("no write cycles completed")
	}
}

// TestLoadgenAbsorbsBackpressure: a deliberately starved server (2 admitted
// requests, long window) must reject bursts with 429, and the retrying
// clients must still complete the whole workload correctly.
func TestLoadgenAbsorbsBackpressure(t *testing.T) {
	ts, data := startServer(t, 2000, server.Config{
		BatchWindow: 5 * time.Millisecond,
		MaxInFlight: 2,
	})
	oracle := scan.New(data)
	res := RunLoadgen(LoadgenConfig{
		BaseURL:    ts.URL,
		Clients:    16,
		Queries:    workload.Uniform(dataset.Universe(), 200, 1e-3, 19),
		Oracle:     func(q geom.Box) []int32 { return oracle.Query(q, nil) },
		MaxRetries: 10000,
	})
	if res.Queries != 200 {
		t.Errorf("completed %d/200 queries (errors %d)", res.Queries, res.Errors)
	}
	if res.Rejected == 0 {
		t.Error("no 429 was seen despite MaxInFlight=2 and 16 clients")
	}
	if res.Mismatches != 0 {
		t.Errorf("%d oracle mismatches", res.Mismatches)
	}
}

// TestLoadgenLatencyExcludesBackoff: a server whose first answers are 429
// makes the client back off before the query is answered; the recorded
// latency covers the answered attempt only, while the rejections still
// count as absorbed retries.
func TestLoadgenLatencyExcludesBackoff(t *testing.T) {
	const rejections = 6 // backoff sleeps 1+2+4+8+16+32 ms between attempts
	const backoff = 63 * time.Millisecond
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if calls.Add(1) <= rejections {
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		json.NewEncoder(w).Encode(server.QueryResponse{IDs: []int32{7}, Count: 1})
	}))
	defer ts.Close()
	var oracleCalls int
	res := RunLoadgen(LoadgenConfig{
		BaseURL: ts.URL,
		Clients: 1,
		Queries: []geom.Box{geom.BoxAt(geom.Point{1, 2, 3}, 1)},
		Oracle: func(geom.Box) []int32 {
			oracleCalls++
			return []int32{7}
		},
	})
	if res.Queries != 1 || res.Rejected != rejections || res.Errors != 0 || res.Mismatches != 0 {
		t.Fatalf("queries %d, rejected %d, errors %d, mismatches %d; want 1, %d, 0, 0",
			res.Queries, res.Rejected, res.Errors, res.Mismatches, rejections)
	}
	if oracleCalls != 1 {
		t.Fatalf("oracle called %d times for one query", oracleCalls)
	}
	if res.Wall < backoff {
		t.Fatalf("run took %v, less than the %v of backoff it must have slept", res.Wall, backoff)
	}
	if lat := res.Latencies[0]; lat >= backoff {
		t.Fatalf("recorded latency %v includes the %v backoff", lat, backoff)
	}
}

// BenchmarkServeLoadgen measures end-to-end HTTP throughput of the serving
// subsystem: 8 loadgen clients draining b.N queries.
func BenchmarkServeLoadgen(b *testing.B) {
	ts, _ := startServer(b, 50000, server.Config{BatchWindow: 200 * time.Microsecond})
	queries := workload.Uniform(dataset.Universe(), b.N, 1e-4, 23)
	b.ResetTimer()
	res := RunLoadgen(LoadgenConfig{BaseURL: ts.URL, Clients: 8, Queries: queries})
	b.StopTimer()
	if res.Errors != 0 {
		b.Fatalf("%d errors", res.Errors)
	}
	b.ReportMetric(res.QPS(), "queries/s")
}
