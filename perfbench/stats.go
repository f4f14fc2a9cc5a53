package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks. An empty sample yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// windows is how many consecutive windows windowedQuantile splits a
// phase into.
const windows = 5

// windowedQuantile splits the time-ordered xs into windows consecutive
// windows of equal count and returns the median of the windows'
// q-quantiles: a transient burst (a late garbage collection, a busy
// spell of the host) then moves one window, not the reported value.
func windowedQuantile(xs []float64, q float64) float64 {
	if len(xs) < windows {
		return quantile(xs, q)
	}
	per := make([]float64, windows)
	for i := range per {
		per[i] = quantile(xs[i*len(xs)/windows:(i+1)*len(xs)/windows], q)
	}
	return quantile(per, 0.5)
}

// ratio is a/b, or 0 when b is 0 (a layer with no events).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// span is one traced interval. Times are nanoseconds since the run's
// clock origin; Parent is 0 for a root span.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
	nextID uint64
}

func newTracer(origin time.Time) *tracer { return &tracer{origin: origin} }

// add records a span from start to end under parent and returns its ID.
func (t *tracer) add(name string, parent uint64, start, end time.Time) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	t.spans = append(t.spans, span{ID: t.nextID, Parent: parent, Name: name,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds()})
	return t.nextID
}

// selfTimesMs returns, in milliseconds, for every span named name, its
// duration minus the part of its interval that its child spans cover.
func selfTimesMs(spans []span, name string) []float64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []float64
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, cur := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out = append(out, ms(time.Duration(s.End-s.Start-covered)))
	}
	return out
}

// durationsUs returns the durations of every span named name, in
// microseconds.
func durationsUs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, us(time.Duration(s.End-s.Start)))
		}
	}
	return out
}
