package main

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// paperCounters is the counter set the monitor evaluates and resets on
// every sample: the paper's /threads{locality#L/total}/… set.
var paperCounters = []string{
	"count/cumulative",
	"count/stolen",
	"count/inline",
	"count/instantaneous/pending",
	"time/average",
	"time/average-overhead",
	"time/cumulative",
	"time/cumulative-overhead",
	"time/idle",
	"idle-rate",
}

// counterNames returns the full names of the paper's counter set on
// locality loc.
func counterNames(loc int64) []string {
	out := make([]string, len(paperCounters))
	for i, c := range paperCounters {
		out[i] = fmt.Sprintf("/threads{locality#%d/total}/%s", loc, c)
	}
	return out
}

// counterTotals accumulates sampled-and-reset counter values over a
// measured phase. Several counters of the set reset the same runtime
// quantity (time/average resets the task count and task time, for
// example), so each quantity is the sum over every counter that reads
// it: each read covers what accrued since the previous reset.
type counterTotals struct {
	cumulative int64 // Σ count/cumulative: what a reader of that counter sees
	tasks      int64 // Σ count/cumulative plus the task counts behind both averages
	stolen     int64
	inline     int64
	busyNs     int64
	overheadNs int64
	idleNs     int64
}

// add folds one sample into the totals and reports whether every value
// in it was valid.
func (t *counterTotals) add(vals []core.Value) bool {
	ok := true
	for _, v := range vals {
		if v.Status != core.StatusValid && v.Status != core.StatusNewData {
			ok = false
			continue
		}
		i := strings.Index(v.Name, "}/")
		if i < 0 {
			continue
		}
		switch v.Name[i+2:] {
		case "count/cumulative":
			t.cumulative += v.Raw
			t.tasks += v.Raw
		case "count/stolen":
			t.stolen += v.Raw
		case "count/inline":
			t.inline += v.Raw
		case "time/average":
			t.busyNs += v.Raw
			t.tasks += v.Count
		case "time/average-overhead":
			t.overheadNs += v.Raw
			t.tasks += v.Count
		case "time/cumulative":
			t.busyNs += v.Raw
		case "time/cumulative-overhead":
			t.overheadNs += v.Raw
		case "time/idle":
			t.idleNs += v.Raw
		case "idle-rate":
			// Raw is parked time ×10⁴ (0.01% units) over worker wall time.
			t.idleNs += v.Raw / 10000
		}
	}
	return ok
}

// taskrtMetrics derives the runtime's per-layer metrics from the totals:
// workers×wallNs is the worker time the phase had to account for,
// expectedTasks the tasks the phase really ran, and ops the number of
// kernels (or remote spawns) it served.
func (t *counterTotals) taskrtMetrics(m map[string]float64, workers int, wallNs int64, expectedTasks, ops int64) {
	capacity := float64(workers) * float64(wallNs)
	// Per-task ratios divide by the exact task count, not the sampled
	// one, which the reset race undercounts (see count_loss_frac).
	tasks := float64(expectedTasks)
	m["taskrt.tasks_per_kernel"] = ratio(float64(t.tasks), float64(ops))
	m["taskrt.inline_frac"] = ratio(float64(t.inline), tasks)
	m["taskrt.steal_frac"] = ratio(float64(t.stolen), tasks)
	m["taskrt.grain_ns"] = ratio(float64(t.busyNs), tasks)
	m["taskrt.overhead_ns_per_task"] = ratio(float64(t.overheadNs), tasks)
	m["taskrt.busy_frac"] = ratio(float64(t.busyNs), capacity)
	m["taskrt.overhead_frac"] = ratio(float64(t.overheadNs), capacity)
	m["taskrt.idle_frac"] = ratio(float64(t.idleNs), capacity)
	m["taskrt.unaccounted_frac"] = 1 - m["taskrt.busy_frac"] - m["taskrt.overhead_frac"] - m["taskrt.idle_frac"]
	lost := expectedTasks - t.cumulative
	m["core.lost_tasks"] = float64(lost)
	m["count_loss_frac"] = ratio(float64(lost), float64(expectedTasks))
}
