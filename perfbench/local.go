package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/inncabs"
	"repro/internal/taskrt"
)

// localPeriod is the local monitor's open-loop sampling period.
const localPeriod = time.Millisecond

// localEnv runs one Inncabs kernel at its medium preset on a taskrt
// runtime whose counters are registered in reg, with the paper's counter
// set active.
type localEnv struct {
	bench  *inncabs.Benchmark
	ref    int64
	serial time.Duration
	rt     *taskrt.Runtime
	reg    *core.Registry
	hpx    *inncabs.HPXRuntime
	// tasksPerKernel is the task count of one kernel run, read from
	// count/cumulative after each of two quiet warm-ups.
	tasksPerKernel int64
}

func newLocalEnv(kernel string, tr *tracer) (*localEnv, error) {
	b, err := inncabs.ByName(kernel)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	ref := b.RefChecksum(inncabs.Medium)
	serial := time.Since(t)

	rt := taskrt.New(taskrt.WithWorkers(runtime.NumCPU()))
	e := &localEnv{bench: b, ref: ref, serial: serial, rt: rt, reg: core.NewRegistry(), hpx: inncabs.NewHPX(rt)}
	if err := rt.RegisterCounters(e.reg); err != nil {
		e.close()
		return nil, err
	}
	for _, n := range counterNames(0) {
		if _, err := e.reg.AddActive(n); err != nil {
			e.close()
			return nil, err
		}
	}
	var counts [2]int64
	for i := range counts {
		e.reg.ResetActive()
		if _, err := e.runKernel(tr); err != nil {
			e.close()
			return nil, err
		}
		counts[i] = e.quietCount()
	}
	if counts[0] != counts[1] || counts[0] == 0 {
		e.close()
		return nil, fmt.Errorf("%w: quiet warm-up task counts differ: %d vs %d", errWrong, counts[0], counts[1])
	}
	e.tasksPerKernel = counts[0]
	return e, nil
}

func (e *localEnv) close() { e.rt.Shutdown() }

// runKernel runs the kernel once and checks its checksum. A panic is
// returned as a plain error (a failed operation); a wrong checksum
// wraps errWrong.
func (e *localEnv) runKernel(tr *tracer) (d time.Duration, err error) {
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s kernel panicked: %v", e.bench.Name, r)
		}
	}()
	sum := e.bench.Run(e.hpx, inncabs.Medium)
	end := time.Now()
	if tr != nil {
		tr.add("kernel", 0, start, end)
	}
	if sum != e.ref {
		return 0, fmt.Errorf("%w: %s checksum %d, reference %d", errWrong, e.bench.Name, sum, e.ref)
	}
	return end.Sub(start), nil
}

// quietCount waits until the runtime is quiet — count/cumulative no
// longer moves — and returns the count.
func (e *localEnv) quietCount() int64 {
	name := counterNames(0)[0]
	return settle(func() int64 {
		v, _ := e.reg.Evaluate(name, false)
		return v.Raw
	})
}

// settle polls read every millisecond until two consecutive reads agree
// (at most one second) and returns the last read. Task accounting may
// land just after the join that returned the kernel's result.
func settle(read func() int64) int64 {
	prev := read()
	for i := 0; i < 1000; i++ {
		time.Sleep(time.Millisecond)
		cur := read()
		if cur == prev {
			return cur
		}
		prev = cur
	}
	return prev
}

func (e *localEnv) measure(cfg config, p *phase) error {
	rng := rand.New(rand.NewSource(cfg.seed))
	var tot counterTotals
	buf := make([]core.Value, 0, len(paperCounters))

	e.reg.ResetActive()
	start := p.start
	deadline := start.Add(cfg.duration)
	mon := startSampler(p, newSchedule(start, localPeriod, rng), "core.sweep", func() bool {
		buf = e.reg.EvaluateActiveInto(buf, true)
		return tot.add(buf)
	})
	var kernels int64
	for time.Now().Before(deadline) {
		m := p.mode(time.Now())
		d, err := e.runKernel(p.tr(m))
		kernels++
		p.attempt++
		switch {
		case err == nil:
			p.modes[m].opMs = append(p.modes[m].opMs, ms(d))
		case isWrong(err):
			p.noteWrong(err)
		default:
			p.failed++
		}
	}
	mon.finish(p)
	e.quietCount()
	p.attempt++
	if !tot.add(e.reg.EvaluateActiveInto(buf, true)) {
		p.failed++
	}
	wall := time.Since(start)

	l := p.layer
	tot.taskrtMetrics(l, e.rt.NumWorkers(), wall.Nanoseconds(), kernels*e.tasksPerKernel, kernels)
	l["inncabs.serial_ms"] = ms(e.serial)
	l["inncabs.speedup"] = ratio(ms(e.serial), quantile(p.modes[0].opMs, 0.5))
	l["core.cpu_frac"] = ratio(float64(mon.busy), float64(wall))
	waits, sweeps := selfTimesMs(p.tracer.spans, "sample"), durationsUs(p.tracer.spans, "core.sweep")
	l["core.wait_ms_p50"] = quantile(waits, 0.5)
	l["core.wait_ms_p99"] = quantile(waits, 0.99)
	l["core.sweep_us_p50"] = quantile(sweeps, 0.5)
	l["core.sweep_us_p99"] = quantile(sweeps, 0.99)
	return nil
}
