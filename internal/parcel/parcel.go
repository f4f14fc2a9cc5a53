// Package parcel is the network transport of the reproduction: a small
// TCP protocol that lets one process query the performance counters of
// another — the paper's remote counter access and the transport a
// distributed monitor (cmd/perfmon) attaches through — and run actions
// on it.
//
// Each parcel is one tagged frame: a JSON body, a space, the decimal
// request id and a newline. Callers share a multiplexed connection: a
// writer goroutine flushes the frames queued since its last write, and a
// reader goroutine routes each answer to its caller by id. The server
// answers fast ops in order and invocations out of order, and pushes
// each spawn's completion, tagged 0, to the connection waiting on it, so
// counter samples never queue behind remote work.
//
// The transport is built to be *non-fatal to the application it
// observes* (docs/FAULTS.md): every remote call carries a deadline, the
// client transparently reconnects and retries idempotent requests with
// exponential backoff, a circuit breaker fast-fails a dead endpoint,
// and the client can serve last-known counter values tagged
// core.StatusStale while a locality is unreachable. The server bounds
// request sizes and applies per-connection read/write deadlines so a
// slow or malicious peer cannot wedge a handler.
//
// Parcel traffic — and the fault plane itself — is counted: both ends
// expose /parcels{locality#L/total}/count/{sent,received,errors,
// retries,timeouts}, /parcels{locality#L/total}/data/{sent,received}
// and the client a /parcels{locality#L/total}/breaker/state gauge,
// mirroring HPX's parcelport counter group, each frame counted before it
// is written. A monitor can watch the monitor.
package parcel

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// request is one parcel from client to server.
type request struct {
	Op      string          `json:"op"` // "evaluate", "evaluate_active", "discover", "types", "reset_active", "add_active", "invoke", "bind_bulk", "evaluate_bulk", "spawn", "spawn_wait", "spawn_cancel", "tree_push", "tree_pull"
	Name    string          `json:"name,omitempty"`
	Pattern string          `json:"pattern,omitempty"`
	Reset   bool            `json:"reset,omitempty"`
	Action  string          `json:"action,omitempty"`
	Arg     json.RawMessage `json:"arg,omitempty"`
	Names   []string        `json:"names,omitempty"`  // bind_bulk: counter names to compile
	SetID   int64           `json:"set_id,omitempty"` // evaluate_bulk: bulk set to sample

	// Distributed-spawn fields (docs/FAULTS.md, "Remote spawn").
	Key      string   `json:"key,omitempty"`       // spawn/spawn_cancel: per-spawn idempotency key
	Keys     []string `json:"keys,omitempty"`      // spawn_wait: keys to report on and wait for
	BudgetMS int64    `json:"budget_ms,omitempty"` // spawn: client's remaining deadline budget
	Wait     bool     `json:"wait,omitempty"`      // spawn: push the completion on this connection
	Acks     []string `json:"acks,omitempty"`      // any frame: completions received, to release

	// Aggregation-tree field (tree.go): tree_push carries one subtree
	// digest from a child to its parent.
	Tree *TreeDigest `json:"tree,omitempty"`
}

// idempotent reports whether the request can be safely re-sent after a
// transport failure: the client cannot know whether the server executed
// a request whose response was lost, so only side-effect-free requests
// may be retried blindly. Reads with reset, active-set mutation and
// action invocation are never retried.
func (r request) idempotent() bool {
	switch r.Op {
	case "evaluate", "evaluate_active", "evaluate_bulk":
		return !r.Reset
	case "discover", "types", "bind_bulk":
		// bind_bulk only compiles a name set into per-connection state;
		// re-binding after a lost response is harmless.
		return true
	case "spawn_wait", "spawn_cancel":
		// Waiting twice subscribes once; cancelling twice cancels once.
		// Note "spawn" itself is NOT here: re-sending it is safe thanks to the
		// server's idempotency-key dedupe table, but the retry is owned
		// (and counted) by the spawn plane, not re-sent blindly by the
		// transport.
		return true
	case "tree_pull":
		return true
	case "tree_push":
		// Generation-keyed: the receiver keeps only the newest digest per
		// child subtree, so re-delivering one after a lost response is a
		// no-op (tree.go).
		return true
	default: // add_active, reset_active, invoke, spawn, unknown ops
		return false
	}
}

// response is one parcel from server to client.
type response struct {
	Error  string          `json:"error,omitempty"`
	Code   string          `json:"code,omitempty"` // machine-readable error class (codeActionUnknown, ...)
	Value  *core.Value     `json:"value,omitempty"`
	Values []core.Value    `json:"values,omitempty"`
	Names  []string        `json:"names,omitempty"`
	Infos  []core.Info     `json:"infos,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	SetID  int64           `json:"set_id,omitempty"` // bind_bulk: id of the compiled set
	Spawn  *spawnState     `json:"spawn,omitempty"`  // spawn/spawn_cancel/push: state of that spawn
	Spawns []spawnState    `json:"spawns,omitempty"` // spawn_wait: state per key
	Tree   *TreeDigest     `json:"tree,omitempty"`   // tree_pull: the receiver's folded view

	via *mconn // client side: the connection the response arrived on
}

// Machine-readable error classes carried in response.Code, so clients
// classify failures without string matching.
const (
	codeProtocol      = "protocol"       // malformed/oversized parcel
	codeActionUnknown = "action_unknown" // no such action registered
	codeActionError   = "action_error"   // the action body returned an error
	codeActionPanic   = "action_panic"   // the action body panicked
	codeCancelled     = "cancelled"      // spawn cancelled (cancel op, budget, orphan lease)
	codeSpawnUnknown  = "spawn_unknown"  // no spawn with that key on this server
	codeSpawnLimit    = "spawn_limit"    // server's spawn table is full
)

// ProtocolError is a typed wire-protocol violation: oversized or
// malformed parcels. The server reports it in the response and keeps
// the connection alive — bad input must never kill a handler.
type ProtocolError struct{ Reason string }

// Error implements error.
func (e *ProtocolError) Error() string { return "parcel: protocol: " + e.Reason }

// ErrParcelTooLarge is returned (and reported to the peer) when a
// request line exceeds the server's maximum parcel size.
var ErrParcelTooLarge = &ProtocolError{Reason: "parcel exceeds maximum size"}

// meters counts parcels, bytes and faults on one endpoint.
type meters struct {
	sent, received         *core.RawCounter
	dataSent, dataReceived *core.RawCounter
	errors                 *core.RawCounter // transport/protocol failures
	retries                *core.RawCounter // re-sent idempotent requests
	timeouts               *core.RawCounter // deadline-exceeded failures (subset of errors)

	// Client-side action fault split (never incremented by servers):
	// unknown-action rejections vs errors returned by the action body.
	actionUnknown *core.RawCounter
	actionErrors  *core.RawCounter
}

func newMeters(reg *core.Registry, locality int64, register bool) (*meters, error) {
	m := &meters{}
	mk := func(counter, help, unit string) (*core.RawCounter, error) {
		c := newParcelCounter(locality, counter, help, unit)
		if register {
			if err := reg.Register(c); err != nil {
				return nil, err
			}
		}
		return c, nil
	}
	var err error
	if m.sent, err = mk("count/sent", "parcels sent", core.UnitEvents); err != nil {
		return nil, err
	}
	if m.received, err = mk("count/received", "parcels received", core.UnitEvents); err != nil {
		return nil, err
	}
	if m.dataSent, err = mk("data/sent", "parcel bytes sent", core.UnitBytes); err != nil {
		return nil, err
	}
	if m.dataReceived, err = mk("data/received", "parcel bytes received", core.UnitBytes); err != nil {
		return nil, err
	}
	if m.errors, err = mk("count/errors", "failed parcel exchanges (transport or protocol)", core.UnitEvents); err != nil {
		return nil, err
	}
	if m.retries, err = mk("count/retries", "idempotent parcel requests re-sent after a failure", core.UnitEvents); err != nil {
		return nil, err
	}
	if m.timeouts, err = mk("count/timeouts", "parcel exchanges that exceeded their deadline", core.UnitEvents); err != nil {
		return nil, err
	}
	if m.actionUnknown, err = mk("count/action-unknown", "invocations of actions the target does not register", core.UnitEvents); err != nil {
		return nil, err
	}
	if m.actionErrors, err = mk("count/action-errors", "invocations whose action body returned an error", core.UnitEvents); err != nil {
		return nil, err
	}
	return m, nil
}

func newParcelCounter(locality int64, counter, help, unit string) *core.RawCounter {
	return core.NewLocalityRaw("parcels", counter, locality, help, unit)
}

// ServerOptions tunes the server's defensive limits. The zero value
// selects the defaults noted on each field.
type ServerOptions struct {
	// ReadTimeout is the maximum idle time waiting for the next request
	// on a connection before it is closed. Default 2m; negative disables.
	ReadTimeout time.Duration
	// WriteTimeout is the per-response write budget. Default 10s;
	// negative disables.
	WriteTimeout time.Duration
	// MaxParcelSize bounds one request line in bytes; oversized parcels
	// get an ErrParcelTooLarge response and the rest of the line is
	// discarded. Default 1 MiB.
	MaxParcelSize int
	// SpawnLease is the orphan threshold for remote spawns: a running
	// spawn that no open connection waits on, and whose client has not
	// touched it (spawn/wait/cancel) for this long, is cancelled and
	// counted orphaned. Default 30s; negative disables reaping.
	SpawnLease time.Duration
	// SpawnRetention is how long a completed spawn's result stays
	// available for dedupe and late waits when its client has not
	// acknowledged receiving it. Default 2m.
	SpawnRetention time.Duration
	// MaxSpawnTasks bounds the spawn table (running + retained entries);
	// further spawns are refused with codeSpawnLimit. Default 4096.
	MaxSpawnTasks int
}

// DefaultMaxParcelSize bounds a request line when ServerOptions leaves
// MaxParcelSize zero.
const DefaultMaxParcelSize = 1 << 20

func (o ServerOptions) withDefaults() ServerOptions {
	if o.ReadTimeout == 0 {
		o.ReadTimeout = 2 * time.Minute
	}
	if o.WriteTimeout == 0 {
		o.WriteTimeout = 10 * time.Second
	}
	if o.MaxParcelSize <= 0 {
		o.MaxParcelSize = DefaultMaxParcelSize
	}
	if o.SpawnLease == 0 {
		o.SpawnLease = 30 * time.Second
	}
	if o.SpawnRetention <= 0 {
		o.SpawnRetention = 2 * time.Minute
	}
	if o.MaxSpawnTasks <= 0 {
		o.MaxSpawnTasks = 4096
	}
	return o
}

// Server exposes a registry's counters over TCP.
type Server struct {
	reg      *core.Registry
	listener net.Listener
	meters   *meters
	opts     ServerOptions
	actions  atomic.Value // *ActionMap
	wg       sync.WaitGroup

	// treeNode, when set (SetTreeNode), serves the aggregation-tree ops
	// tree_push/tree_pull (tree.go).
	treeNode atomic.Value // treeNodeHolder

	// spawns is the distributed-spawn task table (spawn.go): keyed by
	// idempotency key, leased against orphaning. baseCtx parents every
	// spawned action so Close cancels them all.
	spawns     *spawnTable
	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed chan struct{}
}

// Serve starts a server on addr (e.g. "127.0.0.1:0") exposing reg with
// default options. The server's parcel counters are registered into the
// same registry under the given locality id, so they are remotely
// queryable themselves.
func Serve(addr string, reg *core.Registry, locality int64) (*Server, error) {
	return ServeOptions(addr, reg, locality, ServerOptions{})
}

// ServeOptions is Serve with explicit defensive limits.
func ServeOptions(addr string, reg *core.Registry, locality int64, opts ServerOptions) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewServer(ln, reg, locality, opts)
}

// NewServer serves on an existing listener — the hook for wrapping the
// accept path in a fault-injection listener (package chaos).
func NewServer(ln net.Listener, reg *core.Registry, locality int64, opts ServerOptions) (*Server, error) {
	m, err := newMeters(reg, locality, true)
	if err != nil {
		ln.Close()
		return nil, err
	}
	s := &Server{
		reg: reg, listener: ln, meters: m, opts: opts.withDefaults(),
		conns: make(map[net.Conn]struct{}), closed: make(chan struct{}),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	orphaned := core.NewLocalityRaw("runtime", "remote/count/orphaned", locality,
		"remote spawns cancelled because their client lease expired", core.UnitEvents)
	if err := reg.Register(orphaned); err != nil {
		ln.Close()
		s.baseCancel()
		return nil, err
	}
	s.spawns = newSpawnTable(s.opts, orphaned, func(cs *connState, resp response) { s.send(cs, 0, resp) })
	s.wg.Add(1)
	go s.acceptLoop()
	s.wg.Add(1)
	go s.spawns.reap(&s.wg, s.closed)
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.listener.Addr().String() }

// Close stops the server: it closes the listener and every live
// connection, then waits for all handlers. Safe to call more than once.
func (s *Server) Close() error {
	s.mu.Lock()
	select {
	case <-s.closed:
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	default:
	}
	close(s.closed)
	err := s.listener.Close()
	// Force-close live connections so handlers blocked in a read return
	// immediately instead of wedging wg.Wait until the peer goes away.
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	// Cancel every in-flight spawned action; their goroutines are not on
	// the waitgroup (a stuck action must not wedge Close), but their
	// scopes die with the server.
	s.baseCancel()
	s.wg.Wait()
	return err
}

// track registers a new connection; it refuses (and the caller must
// close) connections accepted after Close started, which closes the
// window where an in-flight accept could leak a handler past wg.Wait.
func (s *Server) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.closed:
		return false
	default:
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *Server) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
				continue
			}
		}
		if !s.track(conn) {
			conn.Close()
			return
		}
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// Bounds on per-connection bulk-set state, so a misbehaving client
// cannot grow server memory without limit.
const (
	maxBulkSetsPerConn = 64
	maxBulkNames       = 4096
)

// errUnknownBulkSet prefixes the server error for an evaluate_bulk
// against a set id the connection does not hold (typically after a
// reconnect); clients match on it to re-bind transparently.
const errUnknownBulkSet = "parcel: unknown bulk set"

// tagFrame turns body into a tagged frame by appending a space, the
// decimal id and a newline. The id trails the body so that a frame
// damaged at its head still names its caller: the server answers an
// undecodable body under the caller's id. Id 0 tags a frame nobody waits
// on: a pushed spawn completion, or a client frame carrying only
// acknowledgements, which the server does not answer.
func tagFrame(body []byte, id uint64) []byte {
	body = append(body, ' ')
	body = strconv.AppendUint(body, id, 10)
	return append(body, '\n')
}

// splitFrame separates a frame into its body and id; ok is false when
// the frame carries no id tag.
func splitFrame(frame []byte) (body []byte, id uint64, ok bool) {
	frame = bytes.TrimSuffix(frame, []byte{'\n'})
	i := bytes.LastIndexByte(frame, ' ')
	if i < 0 {
		return frame, 0, false
	}
	id, err := strconv.ParseUint(string(frame[i+1:]), 10, 64)
	if err != nil {
		return frame, 0, false
	}
	return frame[:i], id, true
}

// frameWriter writes whole frames onto one connection from a goroutine
// of its own; the frames queued while it writes leave in one flush.
type frameWriter struct {
	conn    net.Conn
	timeout time.Duration // per-write budget; <= 0 disables
	failed  func(error)   // called once if a write fails
	wake    chan struct{}

	mu    sync.Mutex
	queue []byte
	err   error // sticky: the connection is unusable
}

func newFrameWriter(conn net.Conn, timeout time.Duration, failed func(error)) *frameWriter {
	w := &frameWriter{conn: conn, timeout: timeout, failed: failed, wake: make(chan struct{}, 1)}
	go w.run()
	return w
}

// write queues frame; an error means the connection is unusable.
func (w *frameWriter) write(frame []byte) error {
	w.mu.Lock()
	err := w.err
	if err == nil {
		w.queue = append(w.queue, frame...)
	}
	w.mu.Unlock()
	w.poke()
	return err
}

func (w *frameWriter) poke() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

func (w *frameWriter) run() {
	var buf []byte
	for range w.wake {
		w.mu.Lock()
		buf, w.queue = w.queue, buf[:0]
		err := w.err
		w.mu.Unlock()
		if err != nil {
			return
		}
		if len(buf) == 0 {
			continue
		}
		if w.timeout > 0 {
			w.conn.SetWriteDeadline(time.Now().Add(w.timeout))
		}
		if _, err := w.conn.Write(buf); err != nil {
			w.stop(err)
			w.failed(err)
			return
		}
	}
}

// stop refuses further writes and ends the writer.
func (w *frameWriter) stop(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.mu.Unlock()
	w.poke()
}

// connState is the per-connection server state: its frame writer,
// compiled bulk sets and a reused evaluation buffer. Only the handler
// goroutine touches the bulk state, so it needs no lock.
type connState struct {
	w         *frameWriter
	bulkSets  map[int64]*core.BindSet
	nextSetID int64
	bulkBuf   []core.Value
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer s.untrack(conn)
	defer conn.Close()
	rd := bufio.NewReader(conn)
	// A failed write closes the connection, which ends this handler.
	cs := &connState{w: newFrameWriter(conn, s.opts.WriteTimeout, func(error) { conn.Close() })}
	defer cs.w.stop(net.ErrClosed)
	// The spawns this connection waits on fall back to the lease rule.
	defer s.spawns.unsubscribe(cs)
	for {
		if s.opts.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.opts.ReadTimeout))
		}
		frame, err := readFrame(rd, s.opts.MaxParcelSize)
		switch {
		case err == nil:
			s.meters.received.Inc()
			s.meters.dataReceived.Add(int64(len(frame)))
			s.serve(cs, frame)
		case errors.Is(err, ErrParcelTooLarge):
			// Drained; its kept tail still names the caller.
			s.meters.errors.Inc()
			if _, id, ok := splitFrame(frame); !ok || id != 0 {
				s.send(cs, id, response{Error: fmt.Sprintf("%s (%d bytes max)", ErrParcelTooLarge.Error(), s.opts.MaxParcelSize)})
			}
		default:
			return // connection gone or idle deadline hit
		}
	}
}

// serve runs one frame: its acknowledgements, then its op, answered
// under the frame's id. A malformed frame gets a coded ProtocolError,
// never a panic or a dead handler; an untagged one is answered under id
// 0, which no client call waits on.
func (s *Server) serve(cs *connState, frame []byte) {
	body, id, tagged := splitFrame(frame)
	var req request
	err := json.Unmarshal(body, &req)
	if err == nil && !tagged {
		err = errors.New("frame carries no request id")
	}
	if err != nil {
		s.meters.errors.Inc()
		if !tagged || id != 0 {
			perr := &ProtocolError{Reason: "malformed request: " + err.Error()}
			s.send(cs, id, response{Error: perr.Error(), Code: codeProtocol})
		}
		return
	}
	s.spawns.release(req.Acks)
	switch {
	case id == 0: // acknowledgements only
	case req.Op == "invoke":
		// Off the handler, a slow action cannot hold the connection.
		go func() { s.send(cs, id, s.invoke(req)) }()
	default:
		s.send(cs, id, s.dispatch(req, cs))
	}
}

// send queues one response frame, counted before it is written.
func (s *Server) send(cs *connState, id uint64, resp response) {
	out, err := json.Marshal(resp)
	if err != nil {
		out = []byte(`{"error":"parcel: response marshal failure"}`)
	}
	frame := tagFrame(out, id)
	s.meters.sent.Inc()
	s.meters.dataSent.Add(int64(len(frame)))
	cs.w.write(frame)
}

// frameTail is how much of an oversized frame readFrame keeps: its id.
const frameTail = 24

// readFrame reads one newline-terminated frame of at most max bytes. An
// oversized frame is discarded through its newline, keeping the stream
// aligned, and comes back as its tail only, with ErrParcelTooLarge.
func readFrame(rd *bufio.Reader, max int) ([]byte, error) {
	var buf []byte
	n := 0
	for {
		chunk, err := rd.ReadSlice('\n')
		n += len(chunk)
		buf = append(buf, chunk...)
		if n > max && len(buf) > frameTail {
			buf = buf[:copy(buf, buf[len(buf)-frameTail:])]
		}
		switch {
		case errors.Is(err, bufio.ErrBufferFull):
			// keep reading
		case err != nil:
			return buf, err
		case n > max:
			return buf, ErrParcelTooLarge
		default:
			return buf, nil
		}
	}
}

func (s *Server) dispatch(req request, cs *connState) response {
	switch req.Op {
	case "bind_bulk":
		// Compile the named counters once for this connection; later
		// evaluate_bulk requests sample the whole set in one exchange.
		// Binding is lenient: an unresolvable name degrades its slot to
		// StatusCounterUnknown instead of failing the set.
		if len(req.Names) == 0 {
			return response{Error: "parcel: bind_bulk needs at least one name"}
		}
		if len(req.Names) > maxBulkNames {
			return response{Error: fmt.Sprintf("parcel: bind_bulk limited to %d names", maxBulkNames)}
		}
		if cs.bulkSets == nil {
			cs.bulkSets = make(map[int64]*core.BindSet)
		}
		if len(cs.bulkSets) >= maxBulkSetsPerConn {
			return response{Error: fmt.Sprintf("parcel: at most %d bulk sets per connection", maxBulkSetsPerConn)}
		}
		cs.nextSetID++
		cs.bulkSets[cs.nextSetID] = s.reg.BindSetLenient(req.Names)
		return response{SetID: cs.nextSetID, Names: cs.bulkSets[cs.nextSetID].Names()}
	case "evaluate_bulk":
		set, ok := cs.bulkSets[req.SetID]
		if !ok {
			return response{Error: fmt.Sprintf("%s %d", errUnknownBulkSet, req.SetID)}
		}
		cs.bulkBuf = set.EvaluateBatch(cs.bulkBuf, req.Reset)
		return response{Values: cs.bulkBuf}
	case "evaluate":
		v, err := s.reg.Evaluate(req.Name, req.Reset)
		if err != nil {
			return response{Error: err.Error()}
		}
		return response{Value: &v}
	case "discover":
		names, err := s.reg.Discover(req.Pattern)
		if err != nil {
			return response{Error: err.Error()}
		}
		out := make([]string, len(names))
		for i, n := range names {
			out[i] = n.String()
		}
		return response{Names: out}
	case "types":
		return response{Infos: s.reg.Types()}
	case "add_active":
		added, err := s.reg.AddActive(req.Pattern)
		if err != nil {
			return response{Error: err.Error()}
		}
		return response{Names: added}
	case "evaluate_active":
		return response{Values: s.reg.EvaluateActive(req.Reset)}
	case "reset_active":
		s.reg.ResetActive()
		return response{}
	case "invoke":
		return s.invoke(req)
	case "spawn":
		return s.spawn(req, cs)
	case "spawn_wait":
		return s.spawnWait(req, cs)
	case "spawn_cancel":
		return s.spawnCancel(req)
	case "tree_push":
		return s.treePush(req)
	case "tree_pull":
		return s.treePull(req)
	default:
		return response{Error: fmt.Sprintf("parcel: unknown op %q", req.Op)}
	}
}
