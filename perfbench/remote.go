package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agas"
	"repro/internal/core"
	"repro/internal/parcel"
	"repro/internal/taskrt"
)

const (
	// spawnPeriod offers remote spawns open-loop at 200/s: one spawn
	// per 5 ms slot, at a seeded uniform offset inside its slot, so the
	// spawn and sample schedules do not phase-lock for a whole run.
	spawnPeriod = 5 * time.Millisecond
	// remotePeriod is the remote counter sample period.
	remotePeriod = 10 * time.Millisecond
	// Every spawn's task computes fib(n) for a seeded n in [fibMin,
	// fibMax], tens of microseconds, and then stays busy until its
	// service time has passed since the action started: fastHold, or
	// slowHold for one spawn at a seeded position in each block of
	// slowEvery. The task holds a worker as compute would, but for a
	// time that does not stretch when the shared host runs the benchmark
	// slower, so the latencies measure the parcel and agas path and its
	// head-of-line blocking, not the host's CPU speed.
	fibMin    = 18
	fibMax    = 22
	fastHold  = time.Millisecond
	slowHold  = 20 * time.Millisecond
	slowEvery = 20
	// spawnTimeout bounds one spawn; a spawn that outlives it fails.
	spawnTimeout = 10 * time.Second
	// remoteWarmups closed-loop spawns precede the measured phase.
	remoteWarmups = 4
	serverLoc     = 1
	standbyLoc    = 2
)

// spawnArg is the remote fib action's argument. ID links the client's
// remote.spawn span to the server's action span; Hold is the action's
// service time; Traced asks the action to stamp its start and end.
type spawnArg struct {
	ID     uint64        `json:"id"`
	N      int           `json:"n"`
	Hold   time.Duration `json:"hold_ns,omitempty"`
	Traced bool          `json:"traced,omitempty"`
}

// remoteEnv is three localities in one process: a server locality with a
// taskrt runtime, a registry and a parcel server with default options; a
// standby replica of the server's fib action, also with default options;
// and a client locality reaching both through an agas resolver, one parcel
// client each. The resolver prefers the server, so the standby runs only
// the spawns that the server's full spawn table refuses and the resolver
// redirects.
type remoteEnv struct {
	rt         *taskrt.Runtime
	serverReg  *core.Registry
	srv        *parcel.Server
	standbySrv *parcel.Server
	clientReg  *core.Registry
	client     *parcel.Client
	standby    *parcel.Client
	res        *agas.Resolver
	names      []string
	ref        map[int]int64
	serial     time.Duration // sequential fib(fibMax)

	actions atomic.Int64 // action bodies run
	stamps  sync.Map     // spawnArg.ID → [2]time.Time{start, end}
}

func fib(n int) int64 {
	if n < 2 {
		return int64(n)
	}
	return fib(n-1) + fib(n-2)
}

func newRemoteEnv(tr *tracer) (*remoteEnv, error) {
	e := &remoteEnv{names: counterNames(serverLoc), ref: map[int]int64{}}
	for n := fibMin; n < fibMax; n++ {
		e.ref[n] = fib(n)
	}
	t := time.Now()
	e.ref[fibMax] = fib(fibMax)
	e.serial = time.Since(t)

	e.rt = taskrt.New(taskrt.WithWorkers(runtime.NumCPU()), taskrt.WithLocality(serverLoc))
	if err := e.start(); err != nil {
		e.close()
		return nil, err
	}
	for i := 0; i < remoteWarmups; i++ {
		a := spawnArg{ID: uint64(i + 1), N: fibMax, Hold: fastHold, Traced: tr != nil}
		begin := time.Now()
		end, err := e.spawn(context.Background(), a)
		if err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up spawn: %w", err)
		}
		if tr != nil {
			e.traceSpawn(tr, spawnOutcome{id: a.ID, due: begin, resolved: end})
		}
	}
	if e.sample() == nil {
		e.close()
		return nil, errors.New("warm-up sample: counter values not valid")
	}
	return e, nil
}

// start brings up the server, standby and client localities. The
// server is bound first, so the resolver routes every spawn there until
// its table refuses one.
func (e *remoteEnv) start() error {
	e.serverReg = core.NewRegistry()
	if err := e.rt.RegisterCounters(e.serverReg); err != nil {
		return err
	}
	actions := parcel.NewActionMap()
	if err := parcel.RegisterActionCtx(actions, "fib", e.fibAction); err != nil {
		return err
	}
	srv, err := parcel.ServeOptions("127.0.0.1:0", e.serverReg, serverLoc, parcel.ServerOptions{})
	if err != nil {
		return err
	}
	e.srv = srv.WithActions(actions)
	standbySrv, err := parcel.ServeOptions("127.0.0.1:0", core.NewRegistry(), standbyLoc, parcel.ServerOptions{})
	if err != nil {
		return err
	}
	e.standbySrv = standbySrv.WithActions(actions)
	e.clientReg = core.NewRegistry()
	if e.client, err = parcel.Dial(e.srv.Addr(), e.clientReg, 0); err != nil {
		return err
	}
	if e.standby, err = parcel.Dial(e.standbySrv.Addr(), core.NewRegistry(), 0); err != nil {
		return err
	}
	e.res = agas.NewResolver()
	for _, b := range []struct {
		loc int64
		c   *parcel.Client
	}{{serverLoc, e.client}, {standbyLoc, e.standby}} {
		if err := e.res.BindRemote(b.loc, b.c); err != nil {
			return err
		}
		if err := e.res.BindActions(b.loc, "fib"); err != nil {
			return err
		}
	}
	return e.res.EnableRemoteCounters(e.clientReg, 0)
}

func (e *remoteEnv) close() {
	for _, c := range []*parcel.Client{e.client, e.standby} {
		if c != nil {
			c.Close()
		}
	}
	for _, s := range []*parcel.Server{e.srv, e.standbySrv} {
		if s != nil {
			s.Close()
		}
	}
	e.rt.Shutdown()
}

// fibAction is the server's action: one taskrt task that computes
// fib(n) sequentially and stays busy until a.Hold has passed since the
// action started; stamped on the client's clock when traced.
func (e *remoteEnv) fibAction(_ context.Context, a spawnArg) (int64, error) {
	start := time.Now()
	e.actions.Add(1)
	f := taskrt.Spawn(e.rt, taskrt.Async, func() int64 {
		v := fib(a.N)
		for time.Since(start) < a.Hold {
		}
		return v
	})
	v := f.Get()
	if a.Traced {
		e.stamps.Store(a.ID, [2]time.Time{start, time.Now()})
	}
	return v, nil
}

// spawn runs one remote spawn to its verified result.
func (e *remoteEnv) spawn(ctx context.Context, a spawnArg) (time.Time, error) {
	ctx, cancel := context.WithTimeout(ctx, spawnTimeout)
	defer cancel()
	v, err := agas.SpawnRemoteCtx[spawnArg, int64](ctx, e.res, "fib", a).GetContext(ctx)
	end := time.Now()
	if err != nil {
		return end, err
	}
	if v != e.ref[a.N] {
		return end, fmt.Errorf("%w: remote fib(%d) = %d, local %d", errWrong, a.N, v, e.ref[a.N])
	}
	return end, nil
}

// sample evaluates and resets the server's counter set across the
// resolver; the values are nil unless every one is valid.
func (e *remoteEnv) sample() []core.Value {
	vals := e.res.EvaluateAcross(e.names, true)
	for _, v := range vals {
		if v.Status != core.StatusValid && v.Status != core.StatusNewData {
			return nil
		}
	}
	return vals
}

func (e *remoteEnv) serverCount(name string) int64 {
	v, _ := e.serverReg.Evaluate(name, false)
	return v.Raw
}

// spawnOutcome is one measured remote spawn.
type spawnOutcome struct {
	id       uint64
	due      time.Time
	resolved time.Time
	mode     int
	err      error
}

func (e *remoteEnv) measure(cfg config, p *phase) error {
	rng := rand.New(rand.NewSource(cfg.seed))
	samples := newSchedule(p.start, remotePeriod, rng)
	deadline := p.start.Add(cfg.duration)
	received := fmt.Sprintf("/parcels{locality#%d/total}/count/received", serverLoc)

	var tot counterTotals
	if vals := e.sample(); vals == nil {
		return errors.New("remote counters not valid before the measured phase")
	}
	e.actions.Store(0)
	received0 := e.serverCount(received)
	redirected0 := e.remoteCount("redirected")
	faults0 := e.client.FaultCounts()

	mon := startSampler(p, samples, "agas.evaluate", func() bool {
		vals := e.res.EvaluateAcross(e.names, true)
		return tot.add(vals)
	})

	// Completions are collected by one waiter per in-flight spawn:
	// SpawnFuture offers only blocking waits.
	var mu sync.Mutex
	var outcomes []spawnOutcome
	var wg sync.WaitGroup
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	slow := 0
	for k := 0; ; k++ {
		if k%slowEvery == 0 {
			slow = k + rng.Intn(slowEvery)
		}
		due := p.start.Add(time.Duration(k)*spawnPeriod + time.Duration(rng.Int63n(int64(spawnPeriod))))
		if !due.Before(deadline) {
			break
		}
		waitUntil(due, timer, nil)
		issued := time.Now()
		m := p.mode(due)
		a := spawnArg{ID: uint64(k + 1), N: fibMin + rng.Intn(fibMax-fibMin+1), Hold: fastHold, Traced: m == 1}
		if k == slow {
			a.Hold = slowHold
		}
		p.modes[m].lagMs = append(p.modes[m].lagMs, ms(issued.Sub(due)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			end, err := e.spawn(context.Background(), a)
			mu.Lock()
			outcomes = append(outcomes, spawnOutcome{a.ID, due, end, m, err})
			mu.Unlock()
		}()
	}
	wg.Wait()
	mon.finish(p)
	settle(func() int64 { return e.serverCount(e.names[0]) })
	p.attempt++
	if !tot.add(e.res.EvaluateAcross(e.names, true)) {
		p.failed++
	}
	wall := time.Since(p.start)

	sort.Slice(outcomes, func(i, j int) bool { return outcomes[i].id < outcomes[j].id })
	var completed int64
	for _, o := range outcomes {
		p.attempt++
		switch {
		case o.err == nil:
			completed++
			p.modes[o.mode].opMs = append(p.modes[o.mode].opMs, ms(o.resolved.Sub(o.due)))
			if o.mode == 1 {
				e.traceSpawn(p.tracer, o)
			}
		case isWrong(o.err):
			p.noteWrong(o.err)
		default:
			p.failed++
		}
	}
	if err := e.checkConservation(); err != nil {
		p.noteWrong(err)
	}

	l := p.layer
	faults := e.client.FaultCounts()
	tot.taskrtMetrics(l, e.rt.NumWorkers(), wall.Nanoseconds(), e.actions.Load(), completed)
	l["inncabs.serial_ms"] = ms(e.serial)
	l["inncabs.speedup"] = ratio(ms(e.serial), quantile(p.modes[0].opMs, 0.5))
	l["parcel.msgs_per_spawn"] = ratio(float64(e.serverCount(received)-received0), float64(len(outcomes)))
	// Only a full spawn table redirects here: the server's refusals.
	l["parcel.refused"] = float64(e.remoteCount("redirected") - redirected0)
	l["parcel.retries"] = float64(faults.Retries - faults0.Retries)
	l["parcel.timeouts"] = float64(faults.Timeouts - faults0.Timeouts)

	var request, action, delivery []float64
	children := map[uint64]span{}
	for _, s := range p.tracer.spans {
		if s.Name == "server.action" {
			children[s.Parent] = s
		}
	}
	for _, s := range p.tracer.spans {
		if c, ok := children[s.ID]; ok && s.Name == "remote.spawn" {
			request = append(request, ms(time.Duration(c.Start-s.Start)))
			action = append(action, ms(time.Duration(c.End-c.Start)))
			delivery = append(delivery, ms(time.Duration(s.End-c.End)))
		}
	}
	l["parcel.request_ms_p50"] = quantile(request, 0.5)
	l["parcel.request_ms_p99"] = quantile(request, 0.99)
	l["parcel.action_ms_p50"] = quantile(action, 0.5)
	l["parcel.delivery_ms_p50"] = quantile(delivery, 0.5)
	l["parcel.delivery_ms_p99"] = quantile(delivery, 0.99)
	waits, bulks := selfTimesMs(p.tracer.spans, "sample"), durationsUs(p.tracer.spans, "agas.evaluate")
	l["parcel.sample_wait_ms_p50"] = quantile(waits, 0.5)
	l["parcel.sample_wait_ms_p99"] = quantile(waits, 0.99)
	l["parcel.bulk_us_p50"] = quantile(bulks, 0.5)
	l["parcel.bulk_us_p99"] = quantile(bulks, 0.99)
	return nil
}

// traceSpawn records a completed traced spawn and its server action.
func (e *remoteEnv) traceSpawn(tr *tracer, o spawnOutcome) {
	id := tr.add("remote.spawn", 0, o.due, o.resolved)
	if st, ok := e.stamps.Load(o.id); ok {
		at := st.([2]time.Time)
		tr.add("server.action", id, at[0], at[1])
	}
}

// remoteCount reads one of the resolver's /remote/count/* counters.
func (e *remoteEnv) remoteCount(c string) int64 {
	v, _ := e.clientReg.Evaluate("/runtime{locality#0/total}/remote/count/"+c, false)
	return v.Raw
}

// checkConservation checks the resolver's remote spawn counters once all
// work has finished: spawned = completed + failed + cancelled.
func (e *remoteEnv) checkConservation() error {
	read := e.remoteCount
	spawned, completed, failed, cancelled := read("spawned"), read("completed"), read("failed"), read("cancelled")
	if spawned != completed+failed+cancelled {
		return fmt.Errorf("%w: remote spawns not conserved: spawned %d != completed %d + failed %d + cancelled %d",
			errWrong, spawned, completed, failed, cancelled)
	}
	return nil
}
