package parcel

// The multiplexed connection: counter samples and invocations never wait
// behind remote work sharing their connection, a waited spawn costs the
// same frames however long its action runs, and acknowledged completions
// leave the server's spawn table at once.

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// newMuxFixture serves one counter and a few actions; block and
// blockInvoke report their start on started and wait for release, which
// also runs at cleanup.
func newMuxFixture(tb testing.TB, sopts ServerOptions) (names []string, srv *Server, cli *Client, started chan string, release func()) {
	tb.Helper()
	reg := core.NewRegistry()
	c := core.NewRawCounter(
		core.Name{Object: "threads", Counter: "count/cumulative"}.
			WithInstances(core.LocalityInstance(0, "total", -1)...),
		core.Info{TypeName: "/threads/count/cumulative"})
	reg.MustRegister(c)
	srv, err := ServeOptions("127.0.0.1:0", reg, 0, sopts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	started = make(chan string, 4)
	released := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(released) }) }
	tb.Cleanup(release)
	actions := NewActionMap()
	blocking := func(name string) func(context.Context, struct{}) (int, error) {
		return func(ctx context.Context, _ struct{}) (int, error) {
			started <- name
			select {
			case <-released:
				return 1, nil
			case <-ctx.Done():
				return 0, ctx.Err()
			}
		}
	}
	for _, err := range []error{
		RegisterActionCtx(actions, "block", blocking("block")),
		RegisterActionCtx(actions, "blockInvoke", blocking("blockInvoke")),
		RegisterAction(actions, "noop", func(struct{}) (int, error) { return 0, nil }),
		RegisterAction(actions, "sleep", func(ms int) (int, error) {
			time.Sleep(time.Duration(ms) * time.Millisecond)
			return ms, nil
		}),
	} {
		if err != nil {
			tb.Fatal(err)
		}
	}
	srv.WithActions(actions)
	cli, err = Dial(srv.Addr(), nil, 1)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { cli.Close() })
	return []string{c.Name().String()}, srv, cli, started, release
}

// TestNoHeadOfLineBehindActions: while a spawned and an invoked action
// both block on a channel, a bulk counter sample and a no-op Invoke on
// the same client return before the channel is released.
func TestNoHeadOfLineBehindActions(t *testing.T) {
	names, _, cli, started, release := newMuxFixture(t, ServerOptions{})
	ctx := context.Background()
	spawned := SpawnOn[struct{}, int](ctx, cli, "block", struct{}{})
	invoked := InvokeAsync[struct{}, int](cli, "blockInvoke", struct{}{})
	for i := 0; i < 2; i++ {
		<-started
	}

	done := make(chan error, 2)
	go func() {
		vals, err := cli.EvaluateBulk(names, false)
		if err == nil && (len(vals) != 1 || !vals[0].Valid()) {
			err = fmt.Errorf("bulk sample = %+v", vals)
		}
		done <- err
	}()
	go func() { done <- cli.Invoke("noop", struct{}{}, nil) }()
	guard := time.NewTimer(5 * time.Second)
	defer guard.Stop()
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-guard.C:
			t.Fatal("sample or invoke queued behind a blocked action")
		}
	}
	if spawned.Ready() || invoked.Ready() {
		t.Fatal("blocked actions resolved before their release")
	}
	release()
	wctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	for _, f := range []*RemoteFuture[int]{spawned, invoked} {
		if v, err := f.GetContext(wctx); err != nil || v != 1 {
			t.Fatalf("released action = %d, %v", v, err)
		}
	}
}

// tableLen reads the size of the server's spawn table.
func tableLen(srv *Server) int {
	srv.spawns.mu.Lock()
	defer srv.spawns.mu.Unlock()
	return len(srv.spawns.tasks)
}

// TestWaitedSpawnFrameCount: the server receives as many frames for one
// waited spawn of a 300 ms action as for a 1 ms action — the spawn and
// its acknowledgement — since the completion is pushed, not polled.
func TestWaitedSpawnFrameCount(t *testing.T) {
	_, srv, cli, _, _ := newMuxFixture(t, ServerOptions{})
	received := func() int64 { return srv.meters.received.Load() }
	frames := func(ms int) int64 {
		before := received()
		res, err := cli.SpawnJSON(context.Background(), "sleep", json.RawMessage(fmt.Sprint(ms)))
		if err != nil || string(res) != fmt.Sprint(ms) {
			t.Fatalf("sleep(%d) = %s, %v", ms, res, err)
		}
		// The acknowledgement releases the entry; wait for it to land.
		for deadline := time.Now().Add(2 * time.Second); tableLen(srv) != 0 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		return received() - before
	}
	short, long := frames(1), frames(300)
	if short != long {
		t.Fatalf("server received %d frames for a 1 ms spawn, %d for a 300 ms one", short, long)
	}
	if short != 2 {
		t.Fatalf("a waited spawn cost %d frames, want 2 (spawn + acknowledgement)", short)
	}
}

// TestSpawnTableReleasesAcknowledged: acknowledged completions leave the
// table at once, so three times its capacity of sequential waited spawns
// all run; none is refused.
func TestSpawnTableReleasesAcknowledged(t *testing.T) {
	const capacity = 2
	_, srv, cli, _, _ := newMuxFixture(t, ServerOptions{MaxSpawnTasks: capacity})
	for i := 0; i < 3*capacity; i++ {
		if _, err := cli.SpawnJSON(context.Background(), "noop", nil); err != nil {
			t.Fatalf("spawn %d: %v", i, err)
		}
	}
	if n := tableLen(srv); n > 1 {
		t.Fatalf("spawn table holds %d entries after sequential waited spawns, want ≤ 1", n)
	}
}

// BenchmarkSpawnFanOut1000 launches 1,000 concurrent waited spawns of a
// no-op action on one client per iteration and reports ns per spawn.
func BenchmarkSpawnFanOut1000(b *testing.B) {
	const fan = 1000
	_, _, cli, _, _ := newMuxFixture(b, ServerOptions{MaxSpawnTasks: 1 << 20})
	ctx := context.Background()
	futs := make([]*RemoteFuture[int], fan)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range futs {
			futs[j] = SpawnOn[struct{}, int](ctx, cli, "noop", struct{}{})
		}
		for _, f := range futs {
			if _, err := f.GetContext(ctx); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*fan), "ns/spawn")
}

// BenchmarkInvokeLatency times a no-op Invoke on an idle client and on
// one with a spawn pending on the same connection.
func BenchmarkInvokeLatency(b *testing.B) {
	for _, pending := range []bool{false, true} {
		name := "idle"
		if pending {
			name = "spawn-pending"
		}
		b.Run(name, func(b *testing.B) {
			_, _, cli, started, _ := newMuxFixture(b, ServerOptions{})
			if pending {
				SpawnOn[struct{}, int](context.Background(), cli, "block", struct{}{})
				<-started
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := cli.Invoke("noop", struct{}{}, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
