package parcel

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// fibArg/fibRes exercise typed action marshalling.
type fibArg struct {
	N int `json:"n"`
}
type fibRes struct {
	Value int64 `json:"value"`
}

func fibPlain(n int) int64 {
	if n < 2 {
		return int64(n)
	}
	return fibPlain(n-1) + fibPlain(n-2)
}

func newActionFixture(t *testing.T) (*ActionMap, *Client) {
	t.Helper()
	reg := core.NewRegistry()
	srv, err := Serve("127.0.0.1:0", reg, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	actions := NewActionMap()
	srv.WithActions(actions)
	cli, err := Dial(srv.Addr(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return actions, cli
}

func TestInvokeTypedAction(t *testing.T) {
	actions, cli := newActionFixture(t)
	err := RegisterAction(actions, "fib", func(a fibArg) (fibRes, error) {
		return fibRes{Value: fibPlain(a.N)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var res fibRes
	if err := cli.Invoke("fib", fibArg{N: 20}, &res); err != nil {
		t.Fatal(err)
	}
	if res.Value != 6765 {
		t.Fatalf("remote fib(20) = %d", res.Value)
	}
}

func TestInvokeAsyncFuture(t *testing.T) {
	actions, cli := newActionFixture(t)
	if err := RegisterAction(actions, "square", func(n int) (int, error) {
		return n * n, nil
	}); err != nil {
		t.Fatal(err)
	}
	fs := make([]*RemoteFuture[int], 8)
	for i := range fs {
		fs[i] = InvokeAsync[int, int](cli, "square", i)
	}
	for i, f := range fs {
		v, err := f.GetContext(context.Background())
		if err != nil || v != i*i {
			t.Fatalf("square(%d) = %d, %v", i, v, err)
		}
		if !f.Ready() {
			t.Fatal("not ready after GetContext")
		}
	}
}

func TestInvokeErrors(t *testing.T) {
	actions, cli := newActionFixture(t)
	if err := RegisterAction(actions, "fail", func(struct{}) (int, error) {
		return 0, fmt.Errorf("deliberate failure")
	}); err != nil {
		t.Fatal(err)
	}
	if err := cli.Invoke("fail", struct{}{}, nil); err == nil ||
		!strings.Contains(err.Error(), "deliberate failure") {
		t.Fatalf("action error not propagated: %v", err)
	}
	if err := cli.Invoke("nope", nil, nil); err == nil ||
		!strings.Contains(err.Error(), "unknown action") {
		t.Fatalf("unknown action: %v", err)
	}
	// Malformed argument JSON reaches the decoder as a type error.
	if err := cli.Invoke("fail", "not-a-struct", nil); err == nil {
		t.Fatal("type-mismatched argument accepted")
	}
}

func TestInvokeWithoutActionTable(t *testing.T) {
	reg := core.NewRegistry()
	srv, err := Serve("127.0.0.1:0", reg, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Invoke("anything", nil, nil); err == nil ||
		!strings.Contains(err.Error(), "no actions") {
		t.Fatalf("invoke on action-less server: %v", err)
	}
}

func TestActionRegistration(t *testing.T) {
	m := NewActionMap()
	if err := m.Register("", func(json.RawMessage) (any, error) { return nil, nil }); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := m.Register("x", nil); err == nil {
		t.Fatal("nil function accepted")
	}
	if err := m.Register("x", func(json.RawMessage) (any, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("x", func(json.RawMessage) (any, error) { return 2, nil }); err == nil {
		t.Fatal("duplicate accepted")
	}
	if names := m.Names(); len(names) != 1 || names[0] != "x" {
		t.Fatalf("names = %v", names)
	}
}

func TestConcurrentInvocations(t *testing.T) {
	actions, cli := newActionFixture(t)
	if err := RegisterAction(actions, "echo", func(s string) (string, error) {
		return s, nil
	}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := fmt.Sprintf("msg-%d", i)
			var got string
			if err := cli.Invoke("echo", want, &got); err != nil || got != want {
				t.Errorf("echo: %q, %v", got, err)
			}
		}(i)
	}
	wg.Wait()
}

func TestServerSurvivesGarbage(t *testing.T) {
	// A malformed frame yields an error answer under its id (under id 0
	// when it carries none), not a dead connection handler.
	reg := core.NewRegistry()
	srv, err := Serve("127.0.0.1:0", reg, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	rd := bufio.NewReader(conn)
	for _, c := range []struct {
		frame string
		id    uint64
	}{{"this is not json 7\n", 7}, {"this is not json\n", 0}} {
		if _, err := conn.Write([]byte(c.frame)); err != nil {
			t.Fatal(err)
		}
		line, err := rd.ReadBytes('\n')
		body, id, ok := splitFrame(line)
		if err != nil || !ok || id != c.id || !strings.Contains(string(body), "malformed") {
			t.Fatalf("garbage %q answered %q (id %d), %v", c.frame, line, id, err)
		}
	}
	// The connection keeps working.
	if _, err := conn.Write([]byte(`{"op":"types"} 8` + "\n")); err != nil {
		t.Fatal(err)
	}
	line, err := rd.ReadBytes('\n')
	body, id, _ := splitFrame(line)
	var resp response
	if err != nil || id != 8 || json.Unmarshal(body, &resp) != nil || resp.Error != "" {
		t.Fatalf("connection dead after garbage: %q, %v", line, err)
	}
}
