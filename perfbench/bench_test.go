package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// runTiny runs one workload at the tiny sizes and returns the exit code
// and the decoded last line of standard output.
func runTiny(t *testing.T, workload, trace string, extra ...string) (int, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := append([]string{"--workload", workload, "--seed", "3", "--seconds", "0.3",
		"--trace", trace, "--scale", "tiny"}, extra...)
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s trace=%s: last line %q is not a result: %v\nstderr:\n%s",
			workload, trace, lines[len(lines)-1], err, stderr.String())
	}
	return code, res
}

// benchmarkFile is the part of BENCHMARK.json the self-test compares with.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestTinyRunsPrintEveryMetric runs every workload, plain and traced, at
// the tiny sizes: each run must be correct, fail nothing, and print
// exactly the metrics BENCHMARK.json declares, with their units.
func TestTinyRunsPrintEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		for trace, declared := range map[string][]struct{ Name, Unit string }{"0": bf.EndToEnd, "1": bf.PerLayer} {
			code, res := runTiny(t, w.Name, trace)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: exit %d, correct=%v, %d of %d failed",
					w.Name, trace, code, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s trace=%s: %d metrics printed, %d declared", w.Name, trace, len(res.Metrics), len(declared))
			}
			for _, m := range declared {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%s: metric %s printed as %+v, declared unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestCorruptedReferenceFailsTheRun flips one precomputed reference
// answer: the run must notice, report itself incorrect and exit non-zero.
func TestCorruptedReferenceFailsTheRun(t *testing.T) {
	for _, w := range workloadNames() {
		code, res := runTiny(t, w, "0", "--corrupt-reference")
		if code == 0 || res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted reference gave exit %d, correct=%v, failed=%d", w, code, res.Correct, res.Failed)
		}
	}
}
