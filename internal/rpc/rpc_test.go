package rpc

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

type echoArgs struct {
	S string
	N int
}

type echoReply struct {
	S string
	N int
}

func newEchoMux() *Mux {
	m := NewMux()
	Register(m, "echo", "Echo", func(a echoArgs) (echoReply, error) {
		return echoReply{S: a.S, N: a.N + 1}, nil
	})
	Register(m, "echo", "Fail", func(a echoArgs) (echoReply, error) {
		return echoReply{}, fmt.Errorf("boom: %s", a.S)
	})
	Register(m, "echo", "Slow", func(a echoArgs) (echoReply, error) {
		time.Sleep(time.Duration(a.N) * time.Millisecond)
		return echoReply{S: a.S}, nil
	})
	return m
}

func testClient(t *testing.T, c Client) {
	t.Helper()
	var r echoReply
	if err := c.Call("echo", "Echo", echoArgs{S: "hi", N: 1}, &r); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if r.S != "hi" || r.N != 2 {
		t.Fatalf("reply = %+v", r)
	}
	// Application error propagates.
	err := c.Call("echo", "Fail", echoArgs{S: "x"}, &r)
	if err == nil || !strings.Contains(err.Error(), "boom: x") {
		t.Fatalf("Fail err = %v", err)
	}
	// Unknown method.
	if err := c.Call("echo", "Nope", echoArgs{}, nil); err == nil {
		t.Fatal("unknown method: want error")
	}
	if err := c.Call("none", "Echo", echoArgs{}, nil); err == nil {
		t.Fatal("unknown service: want error")
	}
	// nil reply discards.
	if err := c.Call("echo", "Echo", echoArgs{S: "d"}, nil); err != nil {
		t.Fatalf("nil reply: %v", err)
	}
}

func TestLocalClient(t *testing.T) {
	c := NewLocalClient(newEchoMux(), 0)
	defer c.Close()
	testClient(t, c)
}

func TestLocalClientClosed(t *testing.T) {
	c := NewLocalClient(newEchoMux(), 0)
	c.Close()
	c.Close() // idempotent
	if err := c.Call("echo", "Echo", echoArgs{}, nil); err == nil {
		t.Fatal("want error after Close")
	}
}

func TestTCPClient(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", newEchoMux())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	testClient(t, c)
}

func TestTCPConcurrentCalls(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", newEchoMux())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 64
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var r echoReply
			if err := c.Call("echo", "Echo", echoArgs{S: fmt.Sprint(i), N: i}, &r); err != nil {
				errs[i] = err
				return
			}
			if r.S != fmt.Sprint(i) || r.N != i+1 {
				errs[i] = fmt.Errorf("reply %+v for i=%d", r, i)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("call %d: %v", i, err)
		}
	}
}

func TestTCPPipeliningNotHeadOfLineBlocked(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", newEchoMux())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	slowDone := make(chan struct{})
	go func() {
		var r echoReply
		c.Call("echo", "Slow", echoArgs{S: "slow", N: 300}, &r)
		close(slowDone)
	}()
	time.Sleep(20 * time.Millisecond) // let the slow call hit the wire first
	start := time.Now()
	var r echoReply
	if err := c.Call("echo", "Echo", echoArgs{S: "fast"}, &r); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 200*time.Millisecond {
		t.Errorf("fast call blocked behind slow call: %v", d)
	}
	<-slowDone
}

func TestTCPServerClose(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", newEchoMux())
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	srv.Close() // idempotent
	// In-flight or later calls fail rather than hang.
	errc := make(chan error, 1)
	go func() { errc <- c.Call("echo", "Echo", echoArgs{}, nil) }()
	select {
	case err := <-errc:
		if err == nil {
			t.Error("call after server close succeeded")
		}
	case <-time.After(2 * time.Second):
		t.Error("call after server close hung")
	}
	c.Close()
}

func TestTCPClientCloseFailsPending(t *testing.T) {
	// Hold signals that the call is in its handler and keeps it there until
	// the assertions are done: the server's Close waits for the handler.
	started, release := make(chan struct{}), make(chan struct{})
	m := newEchoMux()
	Register(m, "echo", "Hold", func(a echoArgs) (echoReply, error) {
		close(started)
		<-release
		return echoReply{}, nil
	})
	srv, err := Listen("127.0.0.1:0", m)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer close(release)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- c.Call("echo", "Hold", echoArgs{}, nil) }()
	<-started
	c.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Error("pending call returned nil after Close")
		}
	case <-time.After(2 * time.Second):
		t.Error("pending call hung after Close")
	}
}

func TestLatencyInjection(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", newEchoMux(), WithServerLatency(30*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr(), WithCallLatency(30*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if err := c.Call("echo", "Echo", echoArgs{}, nil); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 60*time.Millisecond {
		t.Errorf("latency not injected: call took %v, want >= 60ms", d)
	}
}

func TestLocalLatency(t *testing.T) {
	c := NewLocalClient(newEchoMux(), 25*time.Millisecond)
	defer c.Close()
	start := time.Now()
	if err := c.Call("echo", "Echo", echoArgs{}, nil); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Errorf("call took %v, want >= 25ms", d)
	}
}

func TestMuxServices(t *testing.T) {
	m := newEchoMux()
	Register(m, "dc", "Ping", func(struct{}) (struct{}, error) { return struct{}{}, nil })
	got := m.Services()
	if len(got) != 2 || got[0] != "dc" || got[1] != "echo" {
		t.Errorf("Services() = %v", got)
	}
}

func TestDispatchNoSuchMethodSentinel(t *testing.T) {
	m := NewMux()
	_, err := m.dispatch([]byte("a"), []byte("b"), nil)
	if !errors.Is(err, ErrNoSuchMethod) {
		t.Errorf("err = %v, want ErrNoSuchMethod", err)
	}
}

func TestQuickEchoOverTCP(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", newEchoMux())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	f := func(s string, n int) bool {
		var r echoReply
		if err := c.Call("echo", "Echo", echoArgs{S: s, N: n}, &r); err != nil {
			return false
		}
		return r.S == s && r.N == n+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Skip("port 1 unexpectedly reachable")
	}
}

func TestTCPLargePayload(t *testing.T) {
	m := NewMux()
	Register(m, "blob", "Flip", func(b []byte) ([]byte, error) {
		out := make([]byte, len(b))
		for i := range b {
			out[i] = ^b[i]
		}
		return out, nil
	})
	srv, err := Listen("127.0.0.1:0", m)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload := make([]byte, 4<<20)
	for i := range payload {
		payload[i] = byte(i)
	}
	var out []byte
	if err := c.Call("blob", "Flip", payload, &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(payload) || out[0] != ^payload[0] || out[len(out)-1] != ^payload[len(payload)-1] {
		t.Fatalf("large payload mangled: %d bytes", len(out))
	}
}
