package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/durable"
	"repro/internal/geom"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// serverConfig returns quasii-serve's defaults: a 2 ms coalescing window,
// batches of at most 64, automatic flush every 4096 updates and one traced
// request in 64. The traced pass samples every request instead and keeps
// every trace, so the coalescing wait of each one can be read back.
func serverConfig(traced bool, reg *telemetry.Registry, store *durable.Store) server.Config {
	cfg := server.Config{
		BatchWindow:      2 * time.Millisecond,
		BatchLimit:       64,
		MaxInFlight:      1024,
		FlushEvery:       4096,
		TraceSampleEvery: 64,
		SlowThreshold:    10 * time.Millisecond,
		SlowlogSize:      128,
		Telemetry:        reg,
	}
	if traced {
		cfg.TraceSampleEvery = 1
		cfg.SlowThreshold = 0
		cfg.SlowlogSize = 1 << 16
	}
	if store != nil {
		cfg.Durability = store
	}
	return cfg
}

// system is one running stack: the engine, the server over it, the
// durable store under it when the workload has one, and a loopback
// listener serving it.
type system struct {
	ix    *shard.Index
	srv   *server.Server
	store *durable.Store
	url   string
	hs    *http.Server
	done  chan error
}

// listen serves srv on a fresh loopback port.
func listen(ix *shard.Index, srv *server.Server, store *durable.Store) (*system, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s := &system{ix: ix, srv: srv, store: store,
		url: "http://" + ln.Addr().String(), done: make(chan error, 1),
		hs: &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops the listener, waits for the serving goroutine, and closes
// the store (which checkpoints) when there is one.
func (s *system) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.done
	if s.store != nil {
		if cerr := s.store.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// client is one HTTP/1.1 connection to a system: the transport layer the
// benchmark measures. Request bodies are encoded before timing starts and
// responses are decoded after it ends.
type client struct {
	url string
	hc  *http.Client
}

func newClient(url string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{url: url, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

// post sends body to path and returns the response body. Any status other
// than 200 is an error: the benchmark never retries, so a refusal counts
// as one failed operation.
func (c *client) post(path string, body []byte) ([]byte, error) {
	resp, err := c.hc.Post(c.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s: reading response: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %.200s", path, resp.StatusCode, b)
	}
	return b, nil
}

// get fetches path and decodes its JSON body into v.
func (c *client) get(path string, v any) error {
	resp, err := c.hc.Get(c.url + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// Pre-encoded request bodies.

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request types always encode
	}
	return b
}

func queryBody(q geom.Box) []byte {
	return mustJSON(server.QueryRequest{BoxJSON: server.BoxToJSON(q)})
}

func batchBody(qs []geom.Box) []byte {
	req := server.BatchRequest{Queries: make([]server.BoxJSON, len(qs))}
	for i, q := range qs {
		req.Queries[i] = server.BoxToJSON(q)
	}
	return mustJSON(req)
}

func knnBody(p geom.Point) []byte {
	return mustJSON(server.KNNRequest{Point: p, K: knnK})
}

func insertBody(o geom.Object) []byte {
	return mustJSON(server.InsertRequest{Objects: []server.ObjectJSON{{ID: o.ID, BoxJSON: server.BoxToJSON(o.Box)}}})
}

func deleteBody(o geom.Object) []byte {
	return mustJSON(server.DeleteRequest{ID: o.ID, Hint: server.BoxToJSON(o.Box)})
}

// Response decoding.

func decodeIDs(b []byte) ([]int32, error) {
	var r server.QueryResponse
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("decoding /query response: %w", err)
	}
	return r.IDs, nil
}

func decodeBatch(b []byte) ([][]int32, error) {
	var r server.BatchResponse
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("decoding /batch response: %w", err)
	}
	return r.Results, nil
}

func decodeKNN(b []byte) ([]server.NeighborJSON, error) {
	var r server.KNNResponse
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("decoding /knn response: %w", err)
	}
	return r.Neighbors, nil
}

func decodeDeleted(b []byte) (bool, error) {
	var r server.DeleteResponse
	if err := json.Unmarshal(b, &r); err != nil {
		return false, fmt.Errorf("decoding /delete response: %w", err)
	}
	return r.Deleted, nil
}

// spanLog keeps the spans of a traced run in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// span is one timed call into a layer. Spans that replay the same input
// on different rungs of the ladder share Req; Parent is the span of the
// rung above, so a layer's self time is its span minus its child's.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// add records a span and returns its ID (IDs start at 1; 0 means none).
// A nil log records nothing.
func (l *spanLog) add(name string, req, parent int, start, end time.Time) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(l.t0).Nanoseconds(), End: end.Sub(l.t0).Nanoseconds()})
	return id
}

func (l *spanLog) len() int { return len(l.spans) }

// write stores the spans as JSON lines at path.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
