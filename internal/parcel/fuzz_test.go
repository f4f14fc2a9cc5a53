package parcel

// FuzzParcelDecode drives the server's whole per-frame path — serve,
// exactly what a connection handler feeds each frame — with arbitrary
// bytes. The contract under fuzzing: a malformed or untagged frame
// yields a ProtocolError-coded answer under the frame's id (under id 0
// when it has none, and no answer for an acknowledgement frame tagged
// 0), a well-formed one a normal answer under its id, and NOTHING
// panics or wedges the handler. The spawn ops ride the same path, so
// hostile keys, key lists, budgets and acknowledgements are covered too.
//
// FuzzClientFrame feeds arbitrary bytes to the client's response
// demultiplexer: no panic, and no call ever receives a frame tagged
// with another call's id.

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

// queuedFrames returns the frames queued on a writer that has no
// goroutine flushing them.
func queuedFrames(w *frameWriter) [][]byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	frames := bytes.SplitAfter(bytes.Clone(w.queue), []byte{'\n'})
	return frames[:len(frames)-1] // after the last newline
}

func FuzzParcelDecode(f *testing.F) {
	// Well-formed frames for every op, so mutation explores the dispatch
	// paths and not just the JSON error path.
	seeds := []string{
		`{"op":"types"} 1`,
		`{"op":"discover","name":"/threads{locality#0/worker-thread#*}/time/average"} 2`,
		`{"op":"evaluate","name":"/threads{locality#0/total}/count/cumulative"} 3`,
		`{"op":"evaluate","name":"/threads{locality#0/total}/count/cumulative","reset":true} 4`,
		`{"op":"bind_bulk","names":["/threads{locality#0/total}/count/cumulative"]} 5`,
		`{"op":"evaluate_bulk","set":1} 6`,
		`{"op":"evaluate_bulk","names":["/threads{locality#0/total}/count/cumulative"]} 7`,
		`{"op":"unbind_bulk","set":1} 8`,
		`{"op":"invoke","action":"echo","arg":"hi"} 9`,
		`{"op":"invoke","action":"missing"} 10`,
		`{"op":"spawn","action":"echo","arg":3,"key":"k1","budget_ms":50,"wait":true} 11`,
		`{"op":"spawn","action":"echo","key":""} 12`,
		`{"op":"spawn_wait","keys":["k1","k2"]} 13`,
		`{"op":"spawn_wait","keys":[]} 14`,
		`{"op":"spawn_cancel","key":"k1"} 15`,
		`{"op":"nonsense"} 16`,
		`{"op":"spawn","key":` + strings.Repeat(`[`, 64) + strings.Repeat(`]`, 64) + `} 17`,
		`not json at all 18`,
		`{"op":"spawn", 19`,
		`{} 0`,
		``,
		"\x00\xff\xfe",
		`{"acks":["k1","k2"]} 0`,
		`{"op":"types","acks":["k1"]} 20`,
		`{"op":"types"}`,
		`{"op":"types"} 18446744073709551616`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}

	reg := core.NewRegistry()
	c := core.NewRawCounter(
		core.Name{Object: "threads", Counter: "count/cumulative"}.
			WithInstances(core.LocalityInstance(0, "total", -1)...),
		core.Info{TypeName: "/threads/count/cumulative"})
	reg.MustRegister(c)
	srv, err := Serve("127.0.0.1:0", reg, 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })
	actions := NewActionMap()
	if err := RegisterAction(actions, "echo", func(v json.RawMessage) (json.RawMessage, error) {
		return v, nil
	}); err != nil {
		f.Fatal(err)
	}
	srv.WithActions(actions)

	f.Fuzz(func(t *testing.T, frame []byte) {
		cs := &connState{w: &frameWriter{}}
		srv.serve(cs, frame)

		body, id, tagged := splitFrame(frame)
		var probe request
		malformed := !tagged || json.Unmarshal(body, &probe) != nil
		answers := queuedFrames(cs.w)
		for _, a := range answers {
			aBody, aID, ok := splitFrame(a)
			var resp response
			if !ok || json.Unmarshal(aBody, &resp) != nil {
				t.Fatalf("frame %q → unframed or undecodable answer %q", frame, a)
			}
			if aID != id && !(aID == 0 && resp.Spawn != nil) {
				t.Fatalf("frame %q (id %d) → answer under id %d: %q", frame, id, aID, a)
			}
			if malformed && (resp.Code != codeProtocol || resp.Error == "") {
				// Malformed input MUST come back as a protocol error the
				// client can classify — never a silent success.
				t.Fatalf("malformed frame %q → %+v, want coded protocol error", frame, resp)
			}
		}
		if malformed && (!tagged || id != 0) && len(answers) != 1 {
			t.Fatalf("malformed frame %q → %d answers, want 1", frame, len(answers))
		}
		if tagged && id == 0 && len(answers) != 0 {
			t.Fatalf("acknowledgement frame %q was answered: %q", frame, answers)
		}
	})
}

func FuzzClientFrame(f *testing.F) {
	for _, s := range []string{
		`{"values":[]} 1` + "\n",
		`{"error":"x","code":"protocol"} 2` + "\n" + `{} 3` + "\n",
		`{"spawn":{"key":"k","state":"done","result":1}} 0` + "\n",
		`{"spawn":{"key":"k","state":"running"}} 0` + "\n",
		`{} 0` + "\n",
		`{} 4` + "\n",
		`{} 1` + "\n" + `{} 1` + "\n",
		`{"result":"late"} 3` + "\n",
		"garbage\n",
		`{"values":[] 1` + "\n",
		"",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, input []byte) {
		c := &Client{opts: ClientOptions{}.withDefaults(), waits: map[string]*spawnWait{}}
		c.meters, _ = newMeters(nil, 0, false)
		m := &mconn{c: c, calls: map[uint64]chan callResult{}}
		// Calls 1 and 2 in flight, 3 abandoned after its deadline. Room
		// for two answers each, so a double delivery shows instead of
		// blocking the demultiplexer.
		chans := map[uint64]chan callResult{1: make(chan callResult, 2), 2: make(chan callResult, 2)}
		m.calls[1], m.calls[2], m.calls[3] = chans[1], chans[2], nil
		waiter := c.waitFor("k", true)

		for _, frame := range bytes.SplitAfter(input, []byte{'\n'}) {
			if len(frame) == 0 {
				continue
			}
			before := map[uint64]int{1: len(chans[1]), 2: len(chans[2])}
			err := m.deliver(frame)
			for id, ch := range chans {
				if len(ch) == before[id] {
					continue
				}
				// A delivery: the frame must carry exactly this id.
				trimmed := bytes.TrimSuffix(frame, []byte{'\n'})
				tag := trimmed[bytes.LastIndexByte(trimmed, ' ')+1:]
				if n, perr := strconv.ParseUint(string(tag), 10, 64); perr != nil || n != id || err != nil {
					t.Fatalf("frame %q delivered to call %d (err %v)", frame, id, err)
				}
			}
			if err != nil {
				break // the reader would now fail the connection
			}
		}
		for id, ch := range chans {
			if len(ch) > 1 {
				t.Fatalf("call %d received %d answers", id, len(ch))
			}
		}
		select {
		case st := <-waiter.ch:
			if !st.Done {
				t.Fatalf("wait resolved with a non-terminal status %+v", st)
			}
		default:
		}
	})
}
