package parcel

// Remote actions: the parcel layer's second job besides counter access.
// HPX applications invoke registered functions ("plain actions") on any
// locality with the same syntax as local calls; here a server exposes
// named actions whose JSON-encoded argument and result travel in
// parcels, and the client side wraps the invocation in a future-shaped
// call. Together with the counter plumbing this gives the paper's
// "unified API for both parallel and distributed applications": spawn
// locally on taskrt, or on another locality through InvokeAsync, and
// observe both through the same counters.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
)

// ActionFunc is a registered remote entry point: JSON argument in, JSON
// result out.
type ActionFunc func(arg json.RawMessage) (any, error)

// ActionCtxFunc is a context-aware remote entry point: ctx carries the
// spawning client's propagated deadline budget and cancellation (spawn
// ops) — a long-running action should observe it, so a cancelled or
// orphaned spawn actually stops working.
type ActionCtxFunc func(ctx context.Context, arg json.RawMessage) (any, error)

// ActionMap holds a server's registered actions. Safe for concurrent
// registration and dispatch.
type ActionMap struct {
	mu      sync.RWMutex
	actions map[string]ActionCtxFunc
}

// NewActionMap creates an empty action table.
func NewActionMap() *ActionMap {
	return &ActionMap{actions: make(map[string]ActionCtxFunc)}
}

// Register binds a name to a context-blind function; duplicate names
// error. Prefer RegisterCtx for anything long-running.
func (m *ActionMap) Register(name string, fn ActionFunc) error {
	if fn == nil {
		return fmt.Errorf("parcel: invalid action registration %q", name)
	}
	return m.RegisterCtx(name, func(_ context.Context, raw json.RawMessage) (any, error) {
		return fn(raw)
	})
}

// RegisterCtx binds a name to a context-aware function; duplicate names
// error.
func (m *ActionMap) RegisterCtx(name string, fn ActionCtxFunc) error {
	if name == "" || fn == nil {
		return fmt.Errorf("parcel: invalid action registration %q", name)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.actions[name]; dup {
		return fmt.Errorf("parcel: action %q already registered", name)
	}
	m.actions[name] = fn
	return nil
}

// RegisterAction adapts a typed Go function into an action: the
// argument is decoded from JSON into A, the result encoded from R.
func RegisterAction[A, R any](m *ActionMap, name string, fn func(A) (R, error)) error {
	return RegisterActionCtx(m, name, func(_ context.Context, a A) (R, error) { return fn(a) })
}

// RegisterActionCtx is RegisterAction for context-aware functions: the
// action observes its spawn's propagated deadline and cancellation.
func RegisterActionCtx[A, R any](m *ActionMap, name string, fn func(context.Context, A) (R, error)) error {
	return m.RegisterCtx(name, func(ctx context.Context, raw json.RawMessage) (any, error) {
		var arg A
		if len(raw) > 0 {
			if err := json.Unmarshal(raw, &arg); err != nil {
				return nil, fmt.Errorf("parcel: action %q argument: %w", name, err)
			}
		}
		return fn(ctx, arg)
	})
}

// Names lists the registered action names.
func (m *ActionMap) Names() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.actions))
	for n := range m.actions {
		out = append(out, n)
	}
	return out
}

func (m *ActionMap) lookup(name string) ActionCtxFunc {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.actions[name]
}

// WithActions attaches an action table to a server (call before clients
// invoke; typically right after Serve).
func (s *Server) WithActions(m *ActionMap) *Server {
	s.actions.Store(m)
	return s
}

// actionPanicError marks an action body that panicked; runAction
// recovers it so bad action code can never kill a handler or the
// process.
type actionPanicError struct{ value any }

// Error implements error.
func (e *actionPanicError) Error() string { return fmt.Sprintf("panic: %v", e.value) }

// runAction executes one action body panic-isolated and returns its
// JSON-encoded result. ctx carries the spawn plane's propagated budget
// and cancellation; the bare invoke path passes context.Background().
func runAction(ctx context.Context, name string, fn ActionCtxFunc, arg json.RawMessage) (raw json.RawMessage, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &actionPanicError{value: r}
		}
	}()
	result, err := fn(ctx, arg)
	if err != nil {
		return nil, err
	}
	raw, err = json.Marshal(result)
	if err != nil {
		return nil, fmt.Errorf("parcel: action %q result marshal: %w", name, err)
	}
	return raw, nil
}

// invoke dispatches one action request on the server.
func (s *Server) invoke(req request) response {
	m, _ := s.actions.Load().(*ActionMap)
	if m == nil {
		return response{Error: "parcel: this server exposes no actions", Code: codeActionUnknown}
	}
	fn := m.lookup(req.Action)
	if fn == nil {
		return response{Error: fmt.Sprintf("parcel: unknown action %q (have %v)", req.Action, m.Names()), Code: codeActionUnknown}
	}
	raw, err := runAction(context.Background(), req.Action, fn, req.Arg)
	if err != nil {
		code := codeActionError
		var pe *actionPanicError
		if errors.As(err, &pe) {
			code = codeActionPanic
		}
		return response{Error: err.Error(), Code: code}
	}
	return response{Result: raw}
}

// Invoke calls a remote action synchronously, decoding the result into
// out (pass nil to discard it).
func (c *Client) Invoke(action string, arg any, out any) error {
	return c.InvokeContext(context.Background(), action, arg, out)
}

// InvokeContext is Invoke under a caller deadline. Invocations are
// never retried — the client cannot know whether a lost response means
// the action ran — so a transport failure surfaces after one attempt.
// (The spawn plane — SpawnOn, Client.SpawnJSON — lifts that restriction
// via idempotency keys.)
//
// Failures reported by the server come back typed: ErrActionUnknown
// (wrapped) when the target registers no such action, *ActionError when
// the action body itself returned an error or panicked. Each class is
// counted separately, under /parcels{...}/count/action-unknown and
// /parcels{...}/count/action-errors respectively.
func (c *Client) InvokeContext(ctx context.Context, action string, arg any, out any) error {
	var raw json.RawMessage
	if arg != nil {
		b, err := json.Marshal(arg)
		if err != nil {
			return fmt.Errorf("parcel: action %q argument marshal: %w", action, err)
		}
		raw = b
	}
	resp, err := c.roundTripContext(ctx, request{Op: "invoke", Action: action, Arg: raw})
	if err != nil {
		var se *ServerError
		if errors.As(err, &se) {
			return c.spawnErr(action, resp.Code, se.Msg)
		}
		return err
	}
	if out != nil && len(resp.Result) > 0 {
		return json.Unmarshal(resp.Result, out)
	}
	return nil
}

// RemoteFuture carries an in-flight remote invocation.
type RemoteFuture[R any] struct {
	done  chan struct{}
	value R
	err   error
}

// GetContext waits for the remote result until ctx is done, whichever
// comes first; an abandoned wait returns ctx.Err() with R's zero value.
// Abandoning the wait does not cancel the remote work — the context the
// future was launched under governs that.
func (f *RemoteFuture[R]) GetContext(ctx context.Context) (R, error) {
	select {
	case <-f.done:
		return f.value, f.err
	case <-ctx.Done():
		var zero R
		return zero, ctx.Err()
	}
}

// Err waits for the future and reports how the invocation completed:
// nil, a typed action failure (*ActionError, ErrActionUnknown), a spawn
// outcome (ErrSpawnCancelled, ErrSpawnLost) or a transport error.
func (f *RemoteFuture[R]) Err() error {
	<-f.done
	return f.err
}

// Ready reports whether GetContext would not block.
func (f *RemoteFuture[R]) Ready() bool {
	select {
	case <-f.done:
		return true
	default:
		return false
	}
}

// InvokeAsync launches a remote action and returns immediately with a
// future — the distributed analogue of taskrt's Async.
func InvokeAsync[A, R any](c *Client, action string, arg A) *RemoteFuture[R] {
	return InvokeAsyncContext[A, R](context.Background(), c, action, arg)
}

// InvokeAsyncContext is InvokeAsync under a caller deadline: the
// future reports ctx's error if the deadline lapses before the
// remote result arrives.
func InvokeAsyncContext[A, R any](ctx context.Context, c *Client, action string, arg A) *RemoteFuture[R] {
	f := &RemoteFuture[R]{done: make(chan struct{})}
	go func() {
		defer close(f.done)
		f.err = c.InvokeContext(ctx, action, arg, &f.value)
	}()
	return f
}
