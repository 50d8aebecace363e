package rpc

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestRegisterRefusesInterfacePayload: a method whose argument or reply the
// codec cannot carry stops the boot at Register, naming the method and the
// path to the component — not its first caller with a decode error.
func TestRegisterRefusesInterfacePayload(t *testing.T) {
	type envelope struct {
		Name string
		Body struct{ Value any }
	}
	for _, register := range []func(*Mux){
		func(m *Mux) { Register(m, "svc", "Wrap", func(envelope) (struct{}, error) { return struct{}{}, nil }) },
		func(m *Mux) { Register(m, "svc", "Wrap", func(string) (envelope, error) { return envelope{}, nil }) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				for _, want := range []string{"svc.Wrap", "envelope.Body.Value", "interface"} {
					if !strings.Contains(msg, want) {
						t.Errorf("Register panicked with %q, want it to name %s", msg, want)
					}
				}
			}()
			register(NewMux())
			t.Error("Register accepted a payload that reaches an interface")
		}()
	}
}

// TestOneWireTypePerMethod: a client that declares another type for a
// method's argument or reply than its handler is an error on the first call,
// naming both types, on either transport.
func TestOneWireTypePerMethod(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", hotMux())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tcp, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	for name, c := range map[string]Client{"tcp": tcp, "local": NewLocalClient(hotMux(), 0)} {
		var subset struct{ UID string }
		err := c.Call("dc", "touch", hotCallArgs(1), &subset)
		if err == nil || !strings.Contains(err.Error(), "rpc.hotReply") || !strings.Contains(err.Error(), "UID string") {
			t.Errorf("%s: reply into a field subset = %v, want an error naming both types", name, err)
		}
		err = c.Call("dc", "touch", "uid-1", nil)
		if err == nil || !strings.Contains(err.Error(), "rpc.hotArgs") || !strings.Contains(err.Error(), "dc.touch") {
			t.Errorf("%s: a string for hotArgs = %v, want an error naming the method and the handler's type", name, err)
		}
		var r hotReply
		if err := c.Call("dc", "touch", hotCallArgs(1), &r); err != nil || r.UID != "uid-0001" {
			t.Errorf("%s: the next call = %+v, %v", name, r, err)
		}
	}
}

// TestOversizedFrameIsRefusedUnread: a length prefix beyond the frame bound
// ends the connection before a byte is allocated for it, and so does a frame
// that is no request; the server keeps serving.
func TestOversizedFrameIsRefusedUnread(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", hotMux())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, frame := range [][]byte{
		binary.BigEndian.AppendUint32(nil, maxFrame+1),
		append(binary.BigEndian.AppendUint32(nil, 6), "junk!!"...),
	} {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		if n, err := conn.Read(make([]byte, 1)); n != 0 || !errors.Is(err, io.EOF) {
			t.Errorf("after the frame %x the server sent %d bytes, %v; want the connection closed", frame, n, err)
		}
		conn.Close()
	}
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var r hotReply
	if err := c.Call("dc", "touch", hotCallArgs(2), &r); err != nil || r.UID != "uid-0002" {
		t.Fatalf("a call after the refused frames = %+v, %v", r, err)
	}
}

// TestLateResponseNeverReachesAnotherCall: a call that outlived its deadline
// leaves its slot behind, so the response that arrives after all is dropped
// and the calls that follow — on slots and timers that are reused — each get
// their own answer.
func TestLateResponseNeverReachesAnotherCall(t *testing.T) {
	release := make(chan struct{})
	var held atomic.Bool
	m := NewMux()
	Register(m, "svc", "echo", func(s string) (string, error) {
		if s == "slow" && held.CompareAndSwap(false, true) {
			<-release
		}
		return s, nil
	})
	srv, err := Listen("127.0.0.1:0", m)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr(), WithCallTimeout(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var got string
	if err := c.Call("svc", "echo", "slow", &got); !errors.Is(err, ErrDeadline) {
		t.Fatalf("the held call = %q, %v, want ErrDeadline", got, err)
	}
	close(release)
	for i := 0; i < 200; i++ {
		want := strings.Repeat("x", i%17) + "!"
		if err := c.Call("svc", "echo", want, &got); err != nil || got != want {
			t.Fatalf("call %d after the late response = %q, %v, want %q", i, got, err, want)
		}
	}
}

// lateListener hands out one connection, and only when the test says so —
// after Close, if the test wants.
type lateListener struct {
	closed chan struct{} // closed by Close
	accept chan net.Conn
}

func (l *lateListener) Accept() (net.Conn, error) {
	if c, ok := <-l.accept; ok {
		return c, nil
	}
	return nil, net.ErrClosed
}
func (l *lateListener) Close() error   { close(l.closed); return nil }
func (l *lateListener) Addr() net.Addr { return &net.TCPAddr{} }

// TestCloseDoesNotWaitForALateAccept: a connection the kernel completed just
// before Close (a client's Dial returns before the server's Accept does) and
// that Accept hands over after Close swept the open ones is closed by the
// accept loop itself. It used to be served, and Close waited for ever for a
// client that had no reason to hang up. Close sweeps the open connections
// before it closes the listener, so the listener's close puts the sweep in
// front of the accept loop's registration.
func TestCloseDoesNotWaitForALateAccept(t *testing.T) {
	lis := &lateListener{closed: make(chan struct{}), accept: make(chan net.Conn)}
	srv := NewServer(lis, NewMux())
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	<-lis.closed // Close is past the sweep
	ours, theirs := net.Pipe()
	defer ours.Close()
	lis.accept <- theirs
	close(lis.accept)
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close is still waiting for the connection accepted behind its back")
	}
}

// failingListener fails Accept a given number of times, noting when each
// call came, then blocks until Close.
type failingListener struct {
	fails  int
	calls  []time.Time
	failed chan struct{} // closed after the last failing call
	closed chan struct{}
}

func (l *failingListener) Accept() (net.Conn, error) {
	if len(l.calls) < l.fails {
		l.calls = append(l.calls, time.Now())
		if len(l.calls) == l.fails {
			close(l.failed)
		}
		return nil, errors.New("accept: too many open files")
	}
	<-l.closed
	return nil, net.ErrClosed
}
func (l *failingListener) Close() error   { close(l.closed); return nil }
func (l *failingListener) Addr() net.Addr { return &net.TCPAddr{} }

// TestAcceptErrorPauses: an Accept that fails for any reason but Close (out
// of descriptors, most likely) is not retried at once, or the accept loop
// spins a CPU until something else frees one. Each retry comes at least the
// loop's 5 ms pause after the failure before it.
func TestAcceptErrorPauses(t *testing.T) {
	const fails, pause = 5, 5 * time.Millisecond
	lis := &failingListener{fails: fails, failed: make(chan struct{}), closed: make(chan struct{})}
	srv := NewServer(lis, NewMux())
	<-lis.failed
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < fails; i++ {
		if gap := lis.calls[i].Sub(lis.calls[i-1]); gap < pause {
			t.Errorf("Accept retried %v after failure %d, want at least %v", gap, i, pause)
		}
	}
}
