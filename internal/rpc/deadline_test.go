package rpc

import (
	"bufio"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// swallowServer accepts connections and reads request frames but never
// answers them — the wedged-but-connected peer WithCallTimeout exists for.
// It counts the frames it swallows so tests can assert retry behaviour.
type swallowServer struct {
	lis    net.Listener
	frames atomic.Int64
}

func newSwallowServer(t *testing.T) *swallowServer {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	s := &swallowServer{lis: lis}
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				r := bufio.NewReader(conn)
				for {
					if _, err := readFrame(r, nil); err != nil {
						return
					}
					s.frames.Add(1)
				}
			}()
		}
	}()
	return s
}

// TestCallTimeoutDeadline is the regression test for the rpcdeadline
// finding on the client: before WithCallTimeout existed, roundTrip blocked
// forever on a peer that stopped answering without closing the connection.
func TestCallTimeoutDeadline(t *testing.T) {
	srv := newSwallowServer(t)
	c, err := Dial(srv.lis.Addr().String(), WithCallTimeout(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	start := time.Now()
	err = c.Call("svc", "m", struct{}{}, nil)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("call against a silent peer = %v, want ErrDeadline", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("deadline took %v to fire, want ~50ms", elapsed)
	}
	// The abandoned call's pending entry must be reaped, not leaked.
	tc := c.(*tcpClient)
	tc.mu.Lock()
	pending := len(tc.pending)
	tc.mu.Unlock()
	if pending != 0 {
		t.Errorf("%d pending entries left after deadline, want 0", pending)
	}
}

// TestCallTimeoutNotRetried pins the ErrDeadline/ErrTransport distinction:
// a reconnecting client must not replay a timed-out call (the request may
// still execute server-side; a replay could double-apply it).
func TestCallTimeoutNotRetried(t *testing.T) {
	srv := newSwallowServer(t)
	c, err := DialAuto(srv.lis.Addr().String(), WithCallTimeout(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	err = c.Call("svc", "m", struct{}{}, nil)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("call against a silent peer = %v, want ErrDeadline", err)
	}
	if errors.Is(err, ErrTransport) {
		t.Fatal("ErrDeadline must not be an ErrTransport, or reconnect would replay the call")
	}
	if n := srv.frames.Load(); n != 1 {
		t.Fatalf("silent peer saw %d frames, want exactly 1 (no replay of a timed-out call)", n)
	}
}

// TestCallTimeoutHappyPath checks a responsive server is unaffected by the
// armed deadline.
func TestCallTimeoutHappyPath(t *testing.T) {
	mux := NewMux()
	Register(mux, "svc", "echo", func(s string) (string, error) { return s, nil })
	srv, err := Listen("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := Dial(srv.Addr(), WithCallTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var got string
	if err := c.Call("svc", "echo", "hello", &got); err != nil {
		t.Fatal(err)
	}
	if got != "hello" {
		t.Fatalf("echo = %q, want %q", got, "hello")
	}
}

// TestCallBatchTimeoutDeadline covers the batch frame path: every call of a
// timed-out batch fails with ErrDeadline through its Err field.
func TestCallBatchTimeoutDeadline(t *testing.T) {
	srv := newSwallowServer(t)
	c, err := Dial(srv.lis.Addr().String(), WithCallTimeout(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	calls := []*Call{
		NewCall("svc", "m", struct{}{}, nil),
		NewCall("svc", "m", struct{}{}, nil),
	}
	err = CallBatch(c, calls)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("batch against a silent peer = %v, want ErrDeadline", err)
	}
	for i, call := range calls {
		if !errors.Is(call.Err, ErrDeadline) {
			t.Errorf("calls[%d].Err = %v, want ErrDeadline", i, call.Err)
		}
	}
}
