package parcel

// Distributed spawn: the parcel layer's promotion from "counter reads +
// bare invoke" to a fault-tolerant work plane (docs/FAULTS.md, "Remote
// spawn"). A spawn ships an action invocation with a per-spawn
// idempotency key and the client's remaining deadline budget; the server
// executes it asynchronously in a keyed task table, so
//
//   - a retried spawn after a dropped response executes exactly once
//     (the key dedupes into the existing entry),
//   - the client's deadline propagates: the action runs under a context
//     bounded by the shipped budget,
//   - cancelling the client side sends a best-effort spawn_cancel op and
//     the server abandons the task,
//   - tasks that no connection waits on and whose client stopped
//     touching them past a lease are reaped as orphans (counted in
//     /runtime{...}/remote/count/orphaned).
//
// Completion is pushed, not polled: a connection that waits on a spawn
// (spawn with wait set, or spawn_wait) gets its terminal state in a
// frame tagged 0 the moment it completes. The client acknowledges each
// completion it receives on its next frame, and the server then drops
// the entry at once instead of keeping it for SpawnRetention.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
)

// spawnState is the wire form of one spawn's condition.
type spawnState struct {
	Key    string          `json:"key"`
	Action string          `json:"action,omitempty"`
	State  string          `json:"state"` // "running" | "done"
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
	Code   string          `json:"code,omitempty"`
}

const (
	spawnRunning = "running"
	spawnDone    = "done"
)

// ---------------------------------------------------------------------------
// Server side: the keyed task table.

// spawnTask is one remote spawn living in the server's table. Every
// field below cancel is guarded by the table's mutex.
type spawnTask struct {
	cancel context.CancelFunc

	st        spawnState   // its wire state
	doneAt    int64        // unix nanos of completion; 0 while running
	lastTouch int64        // unix nanos of the client's last spawn/wait/cancel
	subs      []*connState // connections waiting on the completion
	orphaned  bool
}

// watchLocked snapshots the task and, while it runs, subscribes cs to
// its completion. Snapshot and subscription are atomic against complete,
// so exactly one of them carries the terminal state to cs.
func (t *spawnTask) watchLocked(cs *connState) spawnState {
	if t.doneAt == 0 && !slices.Contains(t.subs, cs) {
		t.subs = append(t.subs, cs)
	}
	return t.st
}

// spawnTable is the server-level spawn state: alive across connections
// (a retried spawn typically arrives on a fresh connection after a
// fault), bounded, and leased.
type spawnTable struct {
	opts     ServerOptions
	orphaned *core.RawCounter
	push     func(*connState, response) // sends a completion frame

	mu    sync.Mutex
	tasks map[string]*spawnTask
}

func newSpawnTable(opts ServerOptions, orphaned *core.RawCounter, push func(*connState, response)) *spawnTable {
	return &spawnTable{opts: opts, orphaned: orphaned, push: push, tasks: make(map[string]*spawnTask)}
}

// complete resolves t once and pushes its state to every waiting
// connection; later calls (a cancelled action body returning after the
// reaper force-completed it) are no-ops.
func (tb *spawnTable) complete(t *spawnTask, result json.RawMessage, errMsg, errCode string) {
	tb.mu.Lock()
	if t.doneAt != 0 {
		tb.mu.Unlock()
		return
	}
	t.st.State, t.st.Result, t.st.Error, t.st.Code = spawnDone, result, errMsg, errCode
	t.doneAt = time.Now().UnixNano()
	st := t.st
	subs := t.subs
	t.subs = nil
	tb.mu.Unlock()
	for _, cs := range subs {
		tb.push(cs, response{Spawn: &st})
	}
}

// unsubscribe drops a closing connection's waits. A running spawn it
// waited on counts as touched now and falls back to the lease rule.
func (tb *spawnTable) unsubscribe(cs *connState) {
	now := time.Now().UnixNano()
	tb.mu.Lock()
	defer tb.mu.Unlock()
	for _, t := range tb.tasks {
		if i := slices.Index(t.subs, cs); i >= 0 {
			t.subs = slices.Delete(t.subs, i, i+1)
			t.lastTouch = now
		}
	}
}

// release evicts the completed entries a client acknowledged receiving.
func (tb *spawnTable) release(keys []string) {
	if len(keys) == 0 {
		return
	}
	tb.mu.Lock()
	defer tb.mu.Unlock()
	for _, k := range keys {
		if t := tb.tasks[k]; t != nil && t.doneAt != 0 {
			delete(tb.tasks, k)
		}
	}
}

// reap is the orphan/retention sweep loop; it exits when closed closes.
func (tb *spawnTable) reap(wg *sync.WaitGroup, closed <-chan struct{}) {
	defer wg.Done()
	period := tb.opts.SpawnLease / 4
	if tb.opts.SpawnLease <= 0 || period > time.Second {
		period = time.Second
	}
	if period < 5*time.Millisecond {
		period = 5 * time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-closed:
			return
		case <-tick.C:
			tb.sweep(time.Now())
		}
	}
}

// sweep cancels orphaned running tasks and evicts completed entries past
// retention.
func (tb *spawnTable) sweep(now time.Time) {
	var orphans []*spawnTask
	tb.mu.Lock()
	for key, t := range tb.tasks {
		if t.doneAt == 0 {
			if tb.opts.SpawnLease > 0 && len(t.subs) == 0 && !t.orphaned &&
				now.UnixNano()-t.lastTouch > int64(tb.opts.SpawnLease) {
				t.orphaned = true
				orphans = append(orphans, t)
			}
			continue
		}
		if now.UnixNano()-t.doneAt > int64(tb.opts.SpawnRetention) {
			delete(tb.tasks, key)
		}
	}
	tb.mu.Unlock()
	for _, t := range orphans {
		tb.orphaned.Inc()
		t.cancel()
		// Force-complete so a non-cooperative action body cannot keep the
		// entry "running" forever; if the body later returns, its
		// complete is a no-op.
		tb.complete(t, nil, "parcel: spawn orphaned: client lease expired", codeCancelled)
	}
}

// spawn handles the spawn op: dedupe by key, or admit and launch; with
// Wait set, cs also waits on the completion.
func (s *Server) spawn(req request, cs *connState) response {
	if req.Key == "" {
		return response{Error: "parcel: spawn needs an idempotency key", Code: codeProtocol}
	}
	m, _ := s.actions.Load().(*ActionMap)
	if m == nil {
		return response{Error: "parcel: this server exposes no actions", Code: codeActionUnknown}
	}
	fn := m.lookup(req.Action)
	if fn == nil {
		return response{Error: fmt.Sprintf("parcel: unknown action %q", req.Action), Code: codeActionUnknown}
	}

	tb := s.spawns
	tb.mu.Lock()
	defer tb.mu.Unlock()
	// A key already in the table dedupes: the retried spawn of a
	// non-idempotent action observes the one existing execution instead
	// of starting a second.
	t := tb.tasks[req.Key]
	if t == nil {
		if len(tb.tasks) >= tb.opts.MaxSpawnTasks {
			return response{Error: fmt.Sprintf("parcel: spawn table full (%d tasks)", tb.opts.MaxSpawnTasks), Code: codeSpawnLimit}
		}
		var ctx context.Context
		var cancel context.CancelFunc
		if req.BudgetMS > 0 {
			// Deadline propagation: the client shipped its remaining
			// budget; the action runs under it even if the client dies.
			ctx, cancel = context.WithTimeout(s.baseCtx, time.Duration(req.BudgetMS)*time.Millisecond)
		} else {
			ctx, cancel = context.WithCancel(s.baseCtx)
		}
		t = &spawnTask{cancel: cancel, st: spawnState{Key: req.Key, Action: req.Action, State: spawnRunning}}
		tb.tasks[req.Key] = t
		go s.runSpawn(ctx, t, fn, req.Arg)
	}
	t.lastTouch = time.Now().UnixNano()
	st := t.st
	if req.Wait {
		st = t.watchLocked(cs)
	}
	return response{Spawn: &st}
}

// runSpawn executes one admitted action body and completes its entry.
// It runs off the handler so the connection stays responsive, and not
// on s.wg: a stuck body must not wedge Close — its scope dies with
// baseCtx.
func (s *Server) runSpawn(ctx context.Context, t *spawnTask, fn ActionCtxFunc, arg json.RawMessage) {
	defer t.cancel()
	result, err := runAction(ctx, t.st.Action, fn, arg)
	switch {
	case err == nil:
		s.spawns.complete(t, result, "", "")
	case ctx.Err() != nil:
		s.spawns.complete(t, nil, "parcel: spawn cancelled: "+ctx.Err().Error(), codeCancelled)
	default:
		code := codeActionError
		var pe *actionPanicError
		if errors.As(err, &pe) {
			code = codeActionPanic
		}
		s.spawns.complete(t, nil, err.Error(), code)
	}
}

// spawnWait handles the spawn_wait op without blocking: it reports the
// state of every listed key and subscribes cs to the completion of each
// running one. It is also how a client re-subscribes its pending waits
// after a reconnect.
func (s *Server) spawnWait(req request, cs *connState) response {
	if len(req.Keys) == 0 {
		return response{Error: "parcel: spawn_wait needs at least one key", Code: codeProtocol}
	}
	states := make([]spawnState, len(req.Keys))
	now := time.Now().UnixNano()
	tb := s.spawns
	tb.mu.Lock()
	defer tb.mu.Unlock()
	for i, key := range req.Keys {
		t := tb.tasks[key]
		if t == nil {
			states[i] = spawnState{Key: key, State: spawnDone,
				Error: "parcel: no spawn with key " + key, Code: codeSpawnUnknown}
			continue
		}
		t.lastTouch = now
		states[i] = t.watchLocked(cs)
	}
	return response{Spawns: states}
}

// spawnCancel handles the spawn_cancel op — best-effort, idempotent.
func (s *Server) spawnCancel(req request) response {
	if req.Key == "" {
		return response{Error: "parcel: spawn_cancel needs a key", Code: codeProtocol}
	}
	tb := s.spawns
	tb.mu.Lock()
	t := tb.tasks[req.Key]
	tb.mu.Unlock()
	if t == nil {
		return response{Error: "parcel: no spawn with key " + req.Key, Code: codeSpawnUnknown}
	}
	t.cancel()
	tb.complete(t, nil, "parcel: spawn cancelled by client", codeCancelled)
	tb.mu.Lock()
	t.lastTouch = time.Now().UnixNano()
	st := t.st
	tb.mu.Unlock()
	return response{Spawn: &st}
}

// ---------------------------------------------------------------------------
// Client side.

// Typed spawn/action failures, so callers classify without string
// matching (the agas spawn router's failover decisions depend on this).
var (
	// ErrActionUnknown reports that the target registers no action with
	// the requested name — distinct from the action running and failing.
	ErrActionUnknown = errors.New("parcel: unknown action")
	// ErrSpawnCancelled reports a spawn the server abandoned: client
	// cancel op, shipped budget expiry, or orphan lease.
	ErrSpawnCancelled = errors.New("parcel: remote spawn cancelled")
	// ErrSpawnUnknown reports a wait/cancel for a key the server does not
	// hold — after a server restart or retention eviction. The spawn
	// definitely is not running there; re-spawning under the same key is
	// safe.
	ErrSpawnUnknown = errors.New("parcel: unknown spawn key")
	// ErrSpawnLimit reports a refused spawn: the server's table is full.
	ErrSpawnLimit = errors.New("parcel: spawn table full")
	// ErrSpawnLost reports a spawn whose server became unreachable for
	// longer than the client's re-subscribe patience; whether it ran is
	// unknowable from this side.
	ErrSpawnLost = errors.New("parcel: spawn lost: server unreachable")
)

// ActionError is an error returned (or panicked) by the remote action
// body itself: the spawn plane and transport worked.
type ActionError struct {
	Action string
	Msg    string
	Panic  bool
}

// Error implements error.
func (e *ActionError) Error() string {
	if e.Panic {
		return fmt.Sprintf("parcel: action %q panicked: %s", e.Action, e.Msg)
	}
	return fmt.Sprintf("parcel: action %q: %s", e.Action, e.Msg)
}

// SpawnStatus is the client-side view of one spawn.
type SpawnStatus struct {
	// Done reports whether the spawn reached a terminal state.
	Done bool
	// Result is the action's JSON result when Done with a nil Err.
	Result json.RawMessage
	// Err classifies a terminal failure: *ActionError, ErrActionUnknown,
	// ErrSpawnCancelled, ErrSpawnUnknown or ErrSpawnLimit (wrapped).
	Err error
}

// spawnErr maps a wire state onto the typed error vocabulary, counting
// action-level faults on the client's meters.
func (c *Client) spawnErr(action string, code, msg string) error {
	switch code {
	case codeActionUnknown:
		c.meters.actionUnknown.Inc()
		return fmt.Errorf("%w %q: %s", ErrActionUnknown, action, msg)
	case codeActionError:
		c.meters.actionErrors.Inc()
		return &ActionError{Action: action, Msg: msg}
	case codeActionPanic:
		c.meters.actionErrors.Inc()
		return &ActionError{Action: action, Msg: msg, Panic: true}
	case codeCancelled:
		return fmt.Errorf("%w: %s", ErrSpawnCancelled, msg)
	case codeSpawnUnknown:
		return fmt.Errorf("%w: %s", ErrSpawnUnknown, msg)
	case codeSpawnLimit:
		return fmt.Errorf("%w: %s", ErrSpawnLimit, msg)
	default:
		return &ServerError{Msg: msg}
	}
}

func stateToStatus(c *Client, action string, st spawnState) SpawnStatus {
	out := SpawnStatus{Done: st.State == spawnDone}
	if !out.Done {
		return out
	}
	if st.Error != "" || st.Code != "" {
		out.Err = c.spawnErr(action, st.Code, st.Error)
		return out
	}
	out.Result = st.Result
	return out
}

// budgetMS converts ctx's remaining deadline into the wire budget: 0
// means unbounded, and a sub-millisecond remainder still ships 1ms so an
// almost-expired deadline doesn't degrade to "no deadline".
func budgetMS(ctx context.Context) int64 {
	dl, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	ms := time.Until(dl).Milliseconds()
	if ms <= 0 {
		return 1
	}
	return ms
}

// SpawnAction launches one remote spawn attempt under key without
// waiting on it. The request is sent exactly once — the transport never
// blindly re-sends it — so a transport error leaves the execution
// ambiguous and the caller decides: re-issuing the spawn with the same
// key is always safe (the server dedupes), which is how the spawn plane
// retries non-idempotent actions.
func (c *Client) SpawnAction(ctx context.Context, action string, arg json.RawMessage, key string) (SpawnStatus, error) {
	resp, err := c.spawn(ctx, action, arg, key, false)
	if err != nil || resp.Spawn == nil {
		return c.spawnFailed(action, resp, err)
	}
	return stateToStatus(c, action, *resp.Spawn), nil
}

// SpawnWait is SpawnAction followed by a wait for the terminal state, in
// one frame: the server pushes the completion on this connection. An
// error is either SpawnAction's (the spawn op itself failed, execution
// ambiguous) or ctx's, after a best-effort cancel of the remote task.
func (c *Client) SpawnWait(ctx context.Context, action string, arg json.RawMessage, key string) (SpawnStatus, error) {
	w := c.waitFor(key, false)
	resp, err := c.spawn(ctx, action, arg, key, true)
	if errors.As(err, new(*connError)) && ctx.Err() == nil {
		// The connection died with the spawn in flight. The re-subscribe
		// frame asks the next one whether it landed: if so, nothing was
		// lost. If not, or if the endpoint is unreachable, the failure
		// stays ambiguous — the frame may yet be read off the dead
		// connection — and the caller retries the key.
		c.spawnMu.Lock()
		w.probe = true
		c.spawnMu.Unlock()
		c.resubscribe()
		st, werr := c.await(ctx, key, w)
		if werr != nil || !errors.Is(st.Err, ErrSpawnUnknown) && !errors.Is(st.Err, errProbeFailed) {
			return st, werr
		}
		return SpawnStatus{}, err
	}
	if err != nil || resp.Spawn == nil {
		c.unwait(key, w)
		return c.spawnFailed(action, resp, err)
	}
	c.watched(*resp.Spawn, resp.via)
	return c.await(ctx, key, w)
}

func (c *Client) spawn(ctx context.Context, action string, arg json.RawMessage, key string, wait bool) (response, error) {
	return c.roundTripContext(ctx, request{
		Op: "spawn", Action: action, Arg: arg, Key: key, BudgetMS: budgetMS(ctx), Wait: wait,
	})
}

// spawnFailed maps a spawn op that yielded no spawn state: a refusal
// the server reported is a terminal status, anything else an error.
func (c *Client) spawnFailed(action string, resp response, err error) (SpawnStatus, error) {
	var se *ServerError
	if errors.As(err, &se) {
		return SpawnStatus{Done: true, Err: c.spawnErr(action, resp.Code, se.Msg)}, nil
	}
	if err == nil {
		err = &ProtocolError{Reason: "spawn response carries no state"}
	}
	return SpawnStatus{}, err
}

// CancelSpawn asks the server to abandon a spawn — best effort: an
// unreachable server just means the orphan lease will reap it.
func (c *Client) CancelSpawn(ctx context.Context, key string) error {
	_, err := c.roundTripContext(ctx, request{Op: "spawn_cancel", Key: key})
	var se *ServerError
	if errors.As(err, &se) {
		// Cancelling an already-evicted spawn is success, not failure.
		return nil
	}
	return err
}

// ---------------------------------------------------------------------------
// Waiting: a client's pending waits are subscribed on its one live
// connection, and completions arrive as pushed frames.

// spawnPatience is how long the client keeps trying to re-subscribe its
// pending waits to an unreachable endpoint before they resolve
// ErrSpawnLost — the never-hang backstop for waits without a deadline.
const spawnPatience = 50 * 150 * time.Millisecond

// ackDelay bounds how long a received completion's acknowledgement waits
// for a request frame to ride on before it is sent in a frame of its own.
const ackDelay = 10 * time.Millisecond

// spawnWait is the pending wait on one key.
type spawnWait struct {
	ch chan SpawnStatus // delivers the terminal state once
	// held: the server confirmed it holds the key. A held wait is
	// re-subscribed after a reconnect, and for it the server's answer
	// that it does not hold the key is final: otherwise the spawn may
	// not have landed yet.
	held bool
	// probe: the spawn's frame was in flight on a connection that died.
	// The next re-subscribe frame asks for the key, and the wait learns
	// any answer, or errProbeFailed if that frame fails.
	probe bool
}

// errProbeFailed resolves probe waits when the re-subscribe frame fails.
var errProbeFailed = errors.New("parcel: re-subscribe failed")

func anyWait(*spawnWait) bool { return true }

// waitFor registers the wait on key, replacing any earlier one.
func (c *Client) waitFor(key string, held bool) *spawnWait {
	w := &spawnWait{ch: make(chan SpawnStatus, 1), held: held}
	c.spawnMu.Lock()
	c.waits[key] = w
	c.spawnMu.Unlock()
	return w
}

// unwait abandons w; no delivery follows.
func (c *Client) unwait(key string, w *spawnWait) {
	c.spawnMu.Lock()
	if c.waits[key] == w {
		delete(c.waits, key)
	}
	c.spawnMu.Unlock()
}

// finish delivers st to every wait that matches.
func (c *Client) finish(st SpawnStatus, match func(*spawnWait) bool) {
	c.spawnMu.Lock()
	var ws []*spawnWait
	for k, w := range c.waits {
		if match(w) {
			ws = append(ws, w)
			delete(c.waits, k)
		}
	}
	c.spawnMu.Unlock()
	for _, w := range ws {
		w.ch <- st
	}
}

// watched takes a spawn state the server answered on connection via: a
// terminal one resolves the wait; a running one means the wait is now
// subscribed there, and re-subscribes if via has died meanwhile (via is
// nil when no connection answered).
func (c *Client) watched(st spawnState, via *mconn) SpawnStatus {
	if st.State == spawnDone {
		return c.resolve(st)
	}
	c.spawnMu.Lock()
	if w := c.waits[st.Key]; w != nil {
		w.held = true
	}
	c.spawnMu.Unlock()
	if via == nil || !via.alive() {
		c.resubscribe()
	}
	return SpawnStatus{}
}

// resolve hands a terminal spawn state to the key's wait and queues its
// acknowledgement, so the server can release the entry.
func (c *Client) resolve(st spawnState) SpawnStatus {
	status := stateToStatus(c, st.Action, st)
	if !status.Done {
		return status
	}
	unknown := st.Code == codeSpawnUnknown
	c.spawnMu.Lock()
	// An unknown key does not resolve a wait whose spawn may still land.
	w := c.waits[st.Key]
	if w != nil && (!unknown || w.held || w.probe) {
		delete(c.waits, st.Key)
	} else {
		w = nil
	}
	if !unknown {
		c.acks = append(c.acks, st.Key)
		if !c.ackArmed {
			c.ackArmed = true
			time.AfterFunc(ackDelay, c.flushAcks)
		}
	}
	c.spawnMu.Unlock()
	if w != nil {
		w.ch <- status
	}
	return status
}

// takeAcks hands the queued acknowledgements to a request frame.
func (c *Client) takeAcks() []string {
	c.spawnMu.Lock()
	defer c.spawnMu.Unlock()
	acks := c.acks
	c.acks = nil
	return acks
}

// flushAcks sends the acknowledgements no request frame picked up, in a
// frame tagged 0 that the server does not answer. With no live
// connection they are dropped: the entries then expire by retention.
func (c *Client) flushAcks() {
	c.spawnMu.Lock()
	c.ackArmed = false
	c.spawnMu.Unlock()
	c.mu.Lock()
	m := c.conn
	c.mu.Unlock()
	if acks := c.takeAcks(); len(acks) > 0 && m != nil {
		body, _ := json.Marshal(request{Acks: acks})
		m.send(tagFrame(body, 0))
	}
}

// await blocks until w resolves or ctx ends; in the latter case a
// best-effort cancel op follows and ctx's error returns.
func (c *Client) await(ctx context.Context, key string, w *spawnWait) (SpawnStatus, error) {
	select {
	case st := <-w.ch:
		return st, nil
	case <-ctx.Done():
		c.unwait(key, w)
		// Take a delivery that raced the unwait.
		select {
		case st := <-w.ch:
			return st, nil
		default:
		}
		cctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = c.CancelSpawn(cctx, key)
		return SpawnStatus{}, ctx.Err()
	}
}

// subscribe sends one non-blocking spawn_wait frame for keys. The server
// answers every key's current state — ErrSpawnUnknown for a key it does
// not hold — and pushes the completion of each running one on this
// connection.
func (c *Client) subscribe(ctx context.Context, keys []string) (map[string]SpawnStatus, error) {
	resp, err := c.roundTripContext(ctx, request{Op: "spawn_wait", Keys: keys})
	if err != nil {
		return nil, err
	}
	out := make(map[string]SpawnStatus, len(resp.Spawns))
	for _, st := range resp.Spawns {
		out[st.Key] = c.watched(st, resp.via)
	}
	return out, nil
}

// WaitSpawn waits for the spawn under key to reach a terminal state,
// pushed by the server on this client's connection. If ctx ends first, a
// best-effort cancel op is sent and ctx's error returned. The wait
// itself can never hang: an endpoint that stays unreachable for
// spawnPatience resolves the status as ErrSpawnLost.
func (c *Client) WaitSpawn(ctx context.Context, key string) (SpawnStatus, error) {
	w := c.waitFor(key, true) // the caller spawned it: an unknown key is final
	if _, err := c.subscribe(ctx, []string{key}); err != nil && ctx.Err() == nil {
		c.resubscribe() // keeps trying, within its patience
	}
	return c.await(ctx, key, w)
}

// resubscribe starts the re-subscribe loop unless it is running; a
// running loop makes one more pass. It is called when a connection
// dies, since the waits subscribed on it died too.
func (c *Client) resubscribe() {
	c.spawnMu.Lock()
	c.resubAgain = true
	start := !c.resubbing && len(c.waits) > 0
	c.resubbing = c.resubbing || start
	c.spawnMu.Unlock()
	if start {
		go c.resubscribeLoop()
	}
}

// resubscribeLoop re-subscribes every held wait in one spawn_wait frame,
// redialling within the breaker and with backoff, until that succeeds.
// If the endpoint stays unreachable for spawnPatience, those waits
// resolve ErrSpawnLost.
func (c *Client) resubscribeLoop() {
	var down time.Time // start of the current outage
	for attempt := 0; ; attempt++ {
		var keys []string
		c.spawnMu.Lock()
		for k, w := range c.waits {
			if (w.held || w.probe) && c.resubAgain {
				keys = append(keys, k)
			}
		}
		c.resubAgain = false
		c.resubbing = len(keys) > 0
		c.spawnMu.Unlock()
		if len(keys) == 0 {
			return
		}
		if c.isClosed() {
			c.finish(SpawnStatus{Done: true, Err: ErrClientClosed}, anyWait)
			continue
		}
		ctx, cancel := c.attemptContext(context.Background())
		_, err := c.subscribe(ctx, keys)
		cancel()
		if err == nil {
			down, attempt = time.Time{}, -1
			continue
		}
		c.spawnMu.Lock()
		c.resubAgain = true
		c.spawnMu.Unlock()
		c.finish(SpawnStatus{Done: true, Err: errProbeFailed}, func(w *spawnWait) bool { return w.probe && !w.held })
		if down.IsZero() {
			down = time.Now()
		}
		if time.Since(down) >= spawnPatience {
			c.finish(SpawnStatus{Done: true, Err: fmt.Errorf("%w: %v", ErrSpawnLost, err)},
				func(w *spawnWait) bool { return w.held })
			down, attempt = time.Time{}, -1
			continue
		}
		c.backoff(context.Background(), attempt)
	}
}

// spawnKey generates a client-unique idempotency key.
func (c *Client) spawnKey() string {
	key := strconv.AppendInt([]byte{'s'}, c.spawnEpoch, 16)
	key = append(key, '-')
	return string(strconv.AppendInt(key, c.spawnSeq.Add(1), 16))
}

// spawnAttempts is how many times SpawnJSON re-issues a spawn whose
// outcome is ambiguous (transport failure) before giving up.
const spawnAttempts = 3

// SpawnJSON runs a remote action through the spawn plane end to end on
// this client: spawn and wait with a fresh idempotency key (retrying the
// same key after ambiguous transport failures — the dedupe table makes
// that safe for non-idempotent actions), deadline budget shipped from
// ctx, completion pushed by the server. Cancelling ctx cancels the
// remote task best-effort. Unlike Invoke, a retried SpawnJSON never
// double-executes.
func (c *Client) SpawnJSON(ctx context.Context, action string, arg json.RawMessage) (json.RawMessage, error) {
	key := c.spawnKey()
	var lastErr error
	for attempt := 0; attempt < spawnAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		st, err := c.SpawnWait(ctx, action, arg, key)
		if err == nil {
			return st.Result, st.Err
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		lastErr = err
		c.meters.retries.Inc()
	}
	// Still ambiguous after every attempt: bound the server-side work.
	cctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_ = c.CancelSpawn(cctx, key)
	return nil, lastErr
}

// SpawnOn launches a remote action through the fault-tolerant spawn
// plane and returns a future — the distributed analogue of taskrt's
// Async, superseding InvokeAsync for anything that may be retried or
// cancelled. For replica failover across localities, use
// agas.SpawnRemoteCtx instead.
func SpawnOn[A, R any](ctx context.Context, c *Client, action string, arg A) *RemoteFuture[R] {
	f := &RemoteFuture[R]{done: make(chan struct{})}
	raw, err := json.Marshal(arg)
	if err != nil {
		f.err = fmt.Errorf("parcel: spawn %q argument marshal: %w", action, err)
		close(f.done)
		return f
	}
	go func() {
		defer close(f.done)
		res, err := c.SpawnJSON(ctx, action, raw)
		if err != nil {
			f.err = err
			return
		}
		if len(res) > 0 {
			f.err = json.Unmarshal(res, &f.value)
		}
	}()
	return f
}
