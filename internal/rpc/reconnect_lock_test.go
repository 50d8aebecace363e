package rpc

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stubConn is a Client recording whether it was closed; the dial-hook tests
// use it so no real network is involved.
type stubConn struct{ closed atomic.Bool }

func (s *stubConn) Call(service, method string, args, reply any) error { return nil }
func (s *stubConn) Close() error                                       { s.closed.Store(true); return nil }

// TestAutoClientCloseNotBlockedByDial is the regression test for the
// locks finding on autoClient.current: the redial used to run while
// holding a.mu, so one slow dial wedged Close (and every concurrent
// caller). Close must now complete while a dial is still in flight, and
// the late connection must be closed, not adopted.
func TestAutoClientCloseNotBlockedByDial(t *testing.T) {
	release := make(chan struct{})
	dialing := make(chan struct{})
	conn := &stubConn{}
	a := &autoClient{addr: "stub", dial: func(addr string, opts ...DialOption) (Client, error) {
		close(dialing)
		<-release
		return conn, nil
	}}

	errc := make(chan error, 1)
	go func() {
		_, err := a.current()
		errc <- err
	}()
	<-dialing // the dial is in flight and must not hold a.mu

	closed := make(chan struct{})
	go func() {
		a.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked behind an in-flight dial")
	}

	close(release)
	if err := <-errc; !errors.Is(err, errAutoClosed) {
		t.Fatalf("current() after Close = %v, want errAutoClosed", err)
	}
	if !conn.closed.Load() {
		t.Error("connection dialled across Close was adopted instead of closed")
	}
}

// TestAutoClientConcurrentRedial checks the race two lock-free redials can
// now run: both dials proceed concurrently (neither serialised under a.mu),
// one connection wins, the loser is closed, and both callers end up on the
// winner.
func TestAutoClientConcurrentRedial(t *testing.T) {
	const dialers = 2
	gate := make(chan struct{})
	started := make(chan *stubConn, dialers)
	a := &autoClient{addr: "stub", dial: func(addr string, opts ...DialOption) (Client, error) {
		c := &stubConn{}
		started <- c
		<-gate
		return c, nil
	}}

	var wg sync.WaitGroup
	results := make([]Client, dialers)
	for i := 0; i < dialers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := a.current()
			if err != nil {
				t.Errorf("current: %v", err)
				return
			}
			results[i] = c
		}(i)
	}
	// Both dials must be in flight at once: with the old code the second
	// caller blocked on a.mu until the first dial finished, and this
	// receive would deadlock.
	conns := make([]*stubConn, 0, dialers)
	for i := 0; i < dialers; i++ {
		select {
		case c := <-started:
			conns = append(conns, c)
		case <-time.After(5 * time.Second):
			t.Fatal("second dial never started: redial is serialised under a.mu again")
		}
	}
	close(gate)
	wg.Wait()

	if results[0] != results[1] {
		t.Error("concurrent redials returned different connections")
	}
	var closedCount int
	for _, c := range conns {
		if c.closed.Load() {
			closedCount++
		}
	}
	if closedCount != 1 {
		t.Errorf("%d of %d raced connections closed, want exactly 1 (the loser)", closedCount, dialers)
	}
	if winner, ok := results[0].(*stubConn); !ok || winner.closed.Load() {
		t.Error("the adopted connection is closed (winner/loser mixed up)")
	}
	a.Close()
}

// TestAutoClientCloseWakesBackoff: Close ends a call that is sleeping out
// its redial backoff at once, with errAutoClosed and no further dial. A
// stopping repl shipper used to ride out the whole backoff ladder first.
func TestAutoClientCloseWakesBackoff(t *testing.T) {
	const failures = 5 // the fifth failed dial is followed by a 400 ms backoff
	dialed := make(chan time.Time, 2*reconnectAttempts)
	a := &autoClient{addr: "stub", dial: func(addr string, opts ...DialOption) (Client, error) {
		dialed <- time.Now()
		return nil, errors.New("refused")
	}}
	errc := make(chan error, 1)
	go func() { errc <- a.Call("echo", "Echo", "hi", nil) }()
	var last time.Time
	for i := 0; i < failures; i++ {
		last = <-dialed
	}
	a.Close()
	err := <-errc
	if backoff, waited := reconnectBackoff<<(failures-1), time.Since(last); waited >= backoff {
		t.Errorf("Call returned %v after its last dial: it slept out its %v backoff after Close", waited, backoff)
	}
	if !errors.Is(err, errAutoClosed) {
		t.Errorf("Call after Close = %v, want errAutoClosed", err)
	}
	if n := len(dialed); n != 0 {
		t.Errorf("%d dials after Close", n)
	}
}
