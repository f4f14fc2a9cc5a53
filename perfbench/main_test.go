package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// benchmarkSpec is the part of ../BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// unaccountedTolerance bounds |1 − (busy + overhead + idle) ÷ (workers ×
// wall)|. Busy time read through the paper's counter set loses the part
// the reset race drops (count_loss_frac), and a worker searching for
// work without parking is in none of the three, so the split is not
// exact.
const unaccountedTolerance = 0.25

// TestShortRuns runs every workload briefly, untraced and traced, and
// checks the printed metrics against BENCHMARK.json, the layer splits
// against their totals, and the trace file.
func TestShortRuns(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the command has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Fatalf("BENCHMARK.json workload %q is unknown to the command", w.Name)
		}
		t.Run(w.Name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				cfg := config{workload: w.Name, seed: 7, duration: 2 * time.Second, trace: trace,
					traceOut: filepath.Join(t.TempDir(), "trace.json")}
				res, err := run(cfg, time.Now(), io.Discard)
				if err != nil {
					t.Fatalf("trace=%v: %v", trace, err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
				}
				want := spec.EndToEnd
				if trace {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace=%v: printed %d metrics, BENCHMARK.json lists %d", trace, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("trace=%v: metric %s not printed", trace, m.Name)
					case got.Unit != m.Unit:
						t.Errorf("trace=%v: metric %s unit %q, want %q", trace, m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("trace=%v: metric %s = %v", trace, m.Name, got.Value)
					case !trace && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
				if trace {
					checkLayers(t, res)
					checkTraceFile(t, cfg.traceOut)
				}
			}
		})
	}
}

// checkLayers checks that busy + overhead + idle split the workers' wall
// time within unaccountedTolerance.
func checkLayers(t *testing.T, res *result) {
	t.Helper()
	sum := res.Metrics["taskrt.busy_frac"].Value + res.Metrics["taskrt.overhead_frac"].Value +
		res.Metrics["taskrt.idle_frac"].Value
	if math.Abs(1-sum) > unaccountedTolerance {
		t.Errorf("busy + overhead + idle = %.3f of workers × wall, want 1 ± %.2f", sum, unaccountedTolerance)
	}
}

// checkTraceFile parses the span file and checks the remote split:
// every traced remote.spawn has exactly one server.action child, and
// each child lies inside its parent. Request (parent start to child
// start), action and delivery (child end to parent end) then add up to
// the remote.spawn span exactly, since all three are stamped on one
// clock.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("trace file does not parse: %v", err)
	}
	if len(tf.Spans) == 0 || tf.Host["nproc"] == "" {
		t.Fatalf("trace file has %d spans, host %v", len(tf.Spans), tf.Host)
	}
	byID := map[uint64]span{}
	actions := map[uint64]int{}
	for _, s := range tf.Spans {
		byID[s.ID] = s
	}
	for _, c := range tf.Spans {
		if c.Parent == 0 {
			continue
		}
		p, ok := byID[c.Parent]
		if !ok {
			t.Fatalf("span %d names missing parent %d", c.ID, c.Parent)
		}
		if c.Start < p.Start || c.End > p.End {
			t.Errorf("%s span [%d,%d] outside its %s parent [%d,%d]", c.Name, c.Start, c.End, p.Name, p.Start, p.End)
		}
		if c.Name == "server.action" {
			actions[c.Parent]++
		}
	}
	for _, s := range tf.Spans {
		if s.Name == "remote.spawn" && actions[s.ID] != 1 {
			t.Errorf("remote.spawn %d has %d server.action children, want 1", s.ID, actions[s.ID])
		}
	}
	if len(selfTimesMs(tf.Spans, "sample")) == 0 {
		t.Errorf("trace has no sample spans")
	}
}

// TestStandbyTakesRefusedSpawns fills the server's default spawn table
// and checks that the spawns it refuses complete on the standby replica:
// none fails, and each refusal is counted as a redirect.
func TestStandbyTakesRefusedSpawns(t *testing.T) {
	e, err := newRemoteEnv(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	e.ref[2] = fib(2)
	const extra = 20
	n := 4096 - remoteWarmups + extra
	for i := 0; i < n; i++ {
		if _, err := e.spawn(context.Background(), spawnArg{ID: uint64(i + 1), N: 2}); err != nil {
			t.Fatalf("spawn %d: %v", i, err)
		}
	}
	if got := e.remoteCount("redirected"); got != extra {
		t.Errorf("redirected %d spawns, want %d", got, extra)
	}
	if err := e.checkConservation(); err != nil {
		t.Error(err)
	}
}
