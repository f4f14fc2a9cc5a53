// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload for a fixed time, checks every output against a sequential
// reference, and prints the metrics BENCHMARK.json names as the last
// line of standard output:
//
//	go run . --workload fine_grain --seed 1 --seconds 30 --trace 0
//
// Workloads (see NOTES.md for why each exists):
//
//	fine_grain    Inncabs uts at its medium preset, back to back, while a
//	              monitor evaluates and resets the paper's counter set
//	              every 1 ms (open loop).
//	coarse_grain  Inncabs alignment at its medium preset, same monitor.
//	remote_mixed  remote fib spawns at 200/s through agas and one parcel
//	              connection, sharing it with a remote counter sample
//	              every 10 ms.
//
// With --trace 0 it prints the end-to-end metrics. With --trace 1 the
// measured phase alternates one-second untraced and traced chunks, keeps
// spans in memory, writes them to --trace-out when it ends, and prints
// the per-layer metrics, including the tracing overhead.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// metric names a printed metric and its unit.
type metric struct{ name, unit string }

// endToEnd are the metrics a user of the runtime sees, printed by
// untraced runs. "op" is the workload's unit of work: one verified
// kernel run on the local workloads, one verified remote spawn on
// remote_mixed. Each percentile is the median over windows of the phase
// of that percentile in each window, and peak_rss_mb the median of each
// window's highest resident size; setup_s is the median over setupReps
// set-ups.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"sample_ms_p50", "ms"},
	{"sample_ms_p99", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of single layers, printed by traced runs. A
// layer a workload does not exercise reports 0 (no events).
var perLayer = append([]metric{
	{"inncabs.serial_ms", "ms"},
	{"inncabs.speedup", "ratio"},
	{"taskrt.tasks_per_kernel", "count"},
	{"taskrt.inline_frac", "ratio"},
	{"taskrt.steal_frac", "ratio"},
	{"taskrt.grain_ns", "ns"},
	{"taskrt.overhead_ns_per_task", "ns"},
	{"taskrt.busy_frac", "ratio"},
	{"taskrt.overhead_frac", "ratio"},
	{"taskrt.idle_frac", "ratio"},
	{"taskrt.unaccounted_frac", "ratio"},
	{"core.wait_ms_p50", "ms"},
	{"core.wait_ms_p99", "ms"},
	{"core.sweep_us_p50", "us"},
	{"core.sweep_us_p99", "us"},
	{"core.cpu_frac", "ratio"},
	{"core.lost_tasks", "count"},
	{"count_loss_frac", "ratio"},
	{"failed_frac", "ratio"},
	{"op_ms_p90", "ms"},
	{"op_ms_p99", "ms"},
	{"parcel.request_ms_p50", "ms"},
	{"parcel.request_ms_p99", "ms"},
	{"parcel.action_ms_p50", "ms"},
	{"parcel.delivery_ms_p50", "ms"},
	{"parcel.delivery_ms_p99", "ms"},
	{"parcel.sample_wait_ms_p50", "ms"},
	{"parcel.sample_wait_ms_p99", "ms"},
	{"parcel.bulk_us_p50", "us"},
	{"parcel.bulk_us_p99", "us"},
	{"parcel.msgs_per_spawn", "count"},
	{"parcel.refused", "count"},
	{"parcel.retries", "count"},
	{"parcel.timeouts", "count"},
	{"bench.gen_lag_ms_p99", "ms"},
}, traceOverheadMetrics()...)

// traceOverheadMetrics names bench.trace_overhead_frac for every
// end-to-end metric: its traced value ÷ its untraced value − 1.
func traceOverheadMetrics() []metric {
	var out []metric
	for _, m := range endToEnd {
		out = append(out, metric{"bench.trace_overhead_frac." + m.name, "ratio"})
	}
	return out
}

// setupReps is how many times a run builds its environment; setup_s is
// the median.
const setupReps = 9

// traceChunk is the length of the alternating untraced and traced
// chunks of a traced run's measured phase.
const traceChunk = time.Second

type config struct {
	workload string
	seed     int64
	duration time.Duration
	trace    bool
	traceOut string
}

// errWrong marks an output that differs from its reference: the run is
// not correct, as opposed to an operation that failed.
var errWrong = errors.New("wrong result")

func isWrong(err error) bool { return errors.Is(err, errWrong) }

// modeStats holds the timings of one mode: index 0 untraced, 1 traced.
type modeStats struct {
	opMs     []float64 // due (or start) → verified result
	sampleMs []float64 // due → values returned
	lagMs    []float64 // due → issued, for every open-loop generator
	rssMB    []float64 // resident size, read every rssPeriod by the monitor
}

// phase is the outcome of one measured phase.
type phase struct {
	start   time.Time
	traced  bool // alternate untraced and traced chunks
	modes   [2]modeStats
	tracer  *tracer
	layer   map[string]float64 // per-layer metrics the workload derived
	wrong   error              // first output that failed its check
	attempt int64
	failed  int64
}

// mode returns which mode an operation due at t belongs to.
func (p *phase) mode(t time.Time) int {
	if !p.traced {
		return 0
	}
	return int(t.Sub(p.start)/traceChunk) % 2
}

// tr returns the tracer for an operation of mode m, nil when untraced.
func (p *phase) tr(m int) *tracer {
	if m == 1 {
		return p.tracer
	}
	return nil
}

// noteWrong records the first failed output check.
func (p *phase) noteWrong(err error) {
	if p.wrong == nil {
		p.wrong = err
	}
}

// env is a workload's environment: building it is the timed set-up, and
// the last one built measures the phase.
type env interface {
	measure(cfg config, p *phase) error
	close()
}

// workloads builds each workload's environment; a non-nil tracer records
// the set-up's spans.
var workloads = map[string]func(tr *tracer) (env, error){
	"fine_grain":   func(tr *tracer) (env, error) { return newLocalEnv("uts", tr) },
	"coarse_grain": func(tr *tracer) (env, error) { return newLocalEnv("alignment", tr) },
	"remote_mixed": func(tr *tracer) (env, error) { return newRemoteEnv(tr) },
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	processStart := time.Now()
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(cfg, processStart, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	if res != nil {
		out, _ := json.Marshal(res)
		fmt.Println(string(out))
	}
	if err != nil {
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var seconds float64
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "fine_grain, coarse_grain or remote_mixed")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: remote argument mix and schedule phases")
	fs.Float64Var(&seconds, "seconds", 30, "length of the measured phase")
	fs.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "span file of a traced run (default .bench_build/trace-<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if seconds <= 0 {
		return cfg, fmt.Errorf("--seconds must be positive, got %v", seconds)
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	cfg.duration = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1
	if cfg.trace && cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
	}
	return cfg, nil
}

// run executes one benchmark run and returns its result. A non-nil error
// with a result means an output check failed (Correct is false); an
// error without one means the run could not be carried out.
func run(cfg config, processStart time.Time, log io.Writer) (*result, error) {
	host := hostRecord(cfg.seed)
	hostJSON, _ := json.Marshal(host)
	fmt.Fprintf(log, "host %s\n", hostJSON)

	setup := workloads[cfg.workload]
	// Set-up is timed several times; a traced run interleaves traced
	// set-ups (spans into a discarded tracer) with untraced ones.
	var setupS [2][]float64
	var e env
	reps := setupReps
	if cfg.trace {
		reps *= 2
	}
	for i := 0; i < reps; i++ {
		begin := time.Now()
		if i == 0 {
			begin = processStart
		}
		m := 0
		var tr *tracer
		if cfg.trace && i%2 == 1 {
			m, tr = 1, newTracer(begin)
		}
		en, err := setup(tr)
		if err != nil {
			if errors.Is(err, errWrong) {
				return &result{Correct: false, Attempted: 1, Failed: 0, Metrics: map[string]metricValue{}}, err
			}
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS[m] = append(setupS[m], time.Since(begin).Seconds())
		if i < reps-1 {
			en.close()
		} else {
			e = en
		}
	}
	defer e.close()

	p := &phase{traced: cfg.trace, layer: map[string]float64{}}
	p.start = time.Now()
	p.tracer = newTracer(p.start)
	if err := e.measure(cfg, p); err != nil {
		return nil, err
	}

	res := &result{Correct: p.wrong == nil, Attempted: p.attempt, Failed: p.failed,
		Metrics: map[string]metricValue{}}
	e2e := func(st modeStats, setup []float64) map[string]float64 {
		return map[string]float64{
			"setup_s":       quantile(setup, 0.5),
			"op_ms_p50":     windowedQuantile(st.opMs, 0.5),
			"sample_ms_p50": windowedQuantile(st.sampleMs, 0.5),
			"sample_ms_p99": windowedQuantile(st.sampleMs, 0.99),
			"peak_rss_mb":   windowedQuantile(st.rssMB, 1),
		}
	}
	if !cfg.trace {
		vals := e2e(p.modes[0], setupS[0])
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{vals[m.name], m.unit}
		}
	} else {
		untraced, traced := e2e(p.modes[0], setupS[0]), e2e(p.modes[1], setupS[1])
		for _, m := range endToEnd {
			p.layer["bench.trace_overhead_frac."+m.name] = ratio(traced[m.name], untraced[m.name]) - 1
		}
		var all modeStats
		for _, m := range p.modes {
			all.opMs = append(all.opMs, m.opMs...)
			all.lagMs = append(all.lagMs, m.lagMs...)
		}
		p.layer["op_ms_p90"] = quantile(all.opMs, 0.9)
		p.layer["op_ms_p99"] = quantile(all.opMs, 0.99)
		p.layer["bench.gen_lag_ms_p99"] = quantile(all.lagMs, 0.99)
		p.layer["failed_frac"] = ratio(float64(p.failed), float64(p.attempt))
		if err := writeTrace(cfg, host, p.tracer.spans); err != nil {
			return nil, err
		}
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{p.layer[m.name], m.unit}
		}
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(log, "%-42s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(log, "attempted %d failed %d correct %v\n", res.Attempted, res.Failed, res.Correct)
	return res, p.wrong
}

// traceFile is the span file a traced run writes.
type traceFile struct {
	Workload string            `json:"workload"`
	Host     map[string]string `json:"host"`
	Spans    []span            `json:"spans"`
}

func writeTrace(cfg config, host map[string]string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(cfg.traceOut), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(cfg.traceOut)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(traceFile{cfg.workload, host, spans}); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	return f.Close()
}

// hostRecord describes where a result was measured.
func hostRecord(seed int64) map[string]string {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]string{
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"cpu":        cpu,
		"seed":       strconv.FormatInt(seed, 10),
	}
}

// rssPeriod is how often the monitor reads the resident size.
const rssPeriod = 100 * time.Millisecond

// rssMB reads the process's resident size.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// schedule is an open-loop timetable: op k is due at start+offset+k·period,
// with the offset drawn from the seed.
type schedule struct {
	start  time.Time
	offset time.Duration
	period time.Duration
}

func newSchedule(start time.Time, period time.Duration, rng *rand.Rand) schedule {
	return schedule{start, time.Duration(rng.Int63n(int64(period))), period}
}

func (s schedule) due(k int) time.Time {
	return s.start.Add(s.offset + time.Duration(k)*s.period)
}

// waitUntil sleeps until t, returning false if stop closes first. A
// time already past returns true at once: late operations are issued,
// not skipped.
func waitUntil(t time.Time, timer *time.Timer, stop <-chan struct{}) bool {
	d := time.Until(t)
	if d <= 0 {
		return true
	}
	timer.Reset(d)
	select {
	case <-stop:
		if !timer.Stop() {
			<-timer.C
		}
		return false
	case <-timer.C:
		return true
	}
}

// sampler runs an open-loop monitor in its own goroutine until finish:
// for every due time of its schedule it calls sample, timing the wait
// and the call.
type sampler struct {
	wg     sync.WaitGroup
	stop   chan struct{}
	stopAt atomic.Int64 // unix ns when finish was called; samples due earlier are still taken
	stats  [2]modeStats
	busy   time.Duration // total time inside sample calls
	n      int64
	bad    int64
}

// startSampler launches the monitor. sample returns whether every value
// came back valid. A traced sample is a "sample" span from due time to
// return, with a childName span around the call.
func startSampler(p *phase, sch schedule, childName string, sample func() bool) *sampler {
	s := &sampler{stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		timer := time.NewTimer(time.Hour)
		timer.Stop()
		var lastRSS time.Time
		for k := 0; ; k++ {
			due := sch.due(k)
			if !waitUntil(due, timer, s.stop) {
				return
			}
			if at := s.stopAt.Load(); at != 0 && due.UnixNano() >= at {
				return
			}
			call := time.Now()
			ok := sample()
			end := time.Now()
			m := p.mode(due)
			if end.Sub(lastRSS) >= rssPeriod {
				lastRSS = end
				s.stats[m].rssMB = append(s.stats[m].rssMB, rssMB())
			}
			s.n++
			if !ok {
				s.bad++
			}
			s.busy += end.Sub(call)
			s.stats[m].sampleMs = append(s.stats[m].sampleMs, ms(end.Sub(due)))
			s.stats[m].lagMs = append(s.stats[m].lagMs, ms(call.Sub(due)))
			if tr := p.tr(m); tr != nil {
				id := tr.add("sample", 0, due, end)
				tr.add(childName, id, call, end)
			}
		}
	}()
	return s
}

// finish stops the monitor, waits for it, and folds its figures into p.
func (s *sampler) finish(p *phase) {
	s.stopAt.Store(time.Now().UnixNano())
	close(s.stop)
	s.wg.Wait()
	for m := range p.modes {
		p.modes[m].sampleMs = append(p.modes[m].sampleMs, s.stats[m].sampleMs...)
		p.modes[m].lagMs = append(p.modes[m].lagMs, s.stats[m].lagMs...)
		p.modes[m].rssMB = s.stats[m].rssMB
	}
	p.attempt += s.n
	p.failed += s.bad
}
