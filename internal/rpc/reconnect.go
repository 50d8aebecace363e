package rpc

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Reconnection policy of a DialAuto client: a call that fails at the
// transport level is retried on a fresh connection up to maxAttempts times,
// with exponential backoff between attempts. The total window (~2.3 s)
// comfortably covers the administrator-restart fault model of the paper's
// service hosts when the restart is scripted, while still failing fast
// enough for callers' own retry loops (the Node heartbeat) to take over.
const (
	reconnectAttempts   = 8
	reconnectBackoff    = 25 * time.Millisecond
	reconnectBackoffMax = 500 * time.Millisecond
)

var errAutoClosed = errors.New("rpc: client closed")

// autoClient is a reconnecting wrapper over the TCP client: when a call
// fails because the connection (not the handler) failed, it redials the
// service address and retries. The D* service endpoints this client talks
// to are restartable (their state lives in db.Store), so a bounced service
// host looks like a slow call instead of a wedged client.
type autoClient struct {
	addr string
	opts []DialOption
	// attempts overrides reconnectAttempts when > 0 (DialAutoLazyN).
	attempts int
	// dial replaces Dial in tests (deterministic slow/failing dials); nil
	// means Dial. Immutable after construction, like addr and opts.
	dial func(addr string, opts ...DialOption) (Client, error)

	mu     sync.Mutex
	conn   Client
	closed bool
	// prevTrips accumulates the round-trip counts of connections already
	// torn down, so RoundTrips spans reconnections.
	prevTrips uint64
}

// DialAuto connects to a Server at addr like Dial, but returns a client
// that transparently reconnects: calls failing with ErrTransport are
// retried on a fresh connection (with backoff) instead of wedging every
// subsequent call. Application-level errors are returned as-is, never
// retried. The initial dial is eager so an unreachable service still fails
// fast at connect time.
func DialAuto(addr string, opts ...DialOption) (Client, error) {
	c, err := Dial(addr, opts...)
	if err != nil {
		return nil, err
	}
	return &autoClient{addr: addr, opts: opts, conn: c}, nil
}

// DialAutoLazy is DialAuto without the eager first dial: the client is
// built against a peer that may currently be DOWN, and every call redials
// (with the usual retry budget) until the peer comes back. A sharded
// client uses it for the shards it cannot reach at connect time, so
// joining a degraded plane works and the dead shard heals transparently
// on restart.
func DialAutoLazy(addr string, opts ...DialOption) Client {
	return &autoClient{addr: addr, opts: opts}
}

// DialAutoLazyN is DialAutoLazy with a custom transport-retry budget:
// calls give up after n same-address attempts instead of the default 8.
// A client of a replicated plane uses a small budget so a dead shard surfaces as
// ErrTransport in tens of milliseconds — fast enough to probe the range's
// successor shards — instead of burning the full same-address backoff
// window on an address that will not come back before the failover.
func DialAutoLazyN(addr string, n int, opts ...DialOption) Client {
	if n < 1 {
		n = 1
	}
	return &autoClient{addr: addr, opts: opts, attempts: n}
}

// current returns the live connection, dialling a new one if the previous
// was torn down. The dial itself happens outside a.mu — it is blocking
// network work, and holding the mutex across it would wedge every concurrent
// caller (and Close) behind one slow dial. Concurrent redials may race; the
// loser's connection is closed and the winner's adopted.
func (a *autoClient) current() (Client, error) {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil, errAutoClosed
	}
	if c := a.conn; c != nil {
		a.mu.Unlock()
		return c, nil
	}
	a.mu.Unlock()

	dial := a.dial
	if dial == nil {
		dial = Dial
	}
	c, err := dial(a.addr, a.opts...)
	if err != nil {
		return nil, fmt.Errorf("%w: redial %s: %v", ErrTransport, a.addr, err)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		c.Close()
		return nil, errAutoClosed
	}
	if a.conn != nil {
		// A concurrent caller redialled first; keep its connection.
		c.Close()
		return a.conn, nil
	}
	a.conn = c
	return c, nil
}

// invalidate tears down a connection observed failing, unless a concurrent
// caller already replaced it.
func (a *autoClient) invalidate(c Client) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.conn != c {
		return
	}
	if n, ok := RoundTrips(c); ok {
		a.prevTrips += n
	}
	c.Close()
	a.conn = nil
}

// exec runs fn against the current connection, redialling and retrying on
// transport failure.
func (a *autoClient) exec(fn func(Client) error) error {
	attempts := a.attempts
	if attempts == 0 {
		attempts = reconnectAttempts
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			d := reconnectBackoff << (attempt - 1)
			if d > reconnectBackoffMax {
				d = reconnectBackoffMax
			}
			time.Sleep(d)
		}
		c, err := a.current()
		if err != nil {
			if errors.Is(err, errAutoClosed) {
				return err
			}
			lastErr = err
			continue
		}
		err = fn(c)
		if err == nil || !errors.Is(err, ErrTransport) {
			return err
		}
		lastErr = err
		a.invalidate(c)
	}
	return lastErr
}

func (a *autoClient) Call(service, method string, args, reply any) error {
	return a.exec(func(c Client) error {
		return c.Call(service, method, args, reply)
	})
}

// CallBatch ships the batch over the current connection, replaying the
// whole frame on a fresh connection after a transport failure (per-call
// Err fields are reset before each attempt; a frame fails atomically
// before any reply is applied, so a retry never double-applies).
func (a *autoClient) CallBatch(calls []*Call) error {
	return a.exec(func(c Client) error {
		for _, call := range calls {
			call.Err = nil
		}
		return CallBatch(c, calls)
	})
}

// RoundTrips counts request frames across every connection this client has
// used.
func (a *autoClient) RoundTrips() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	total := a.prevTrips
	if a.conn != nil {
		if n, ok := RoundTrips(a.conn); ok {
			total += n
		}
	}
	return total
}

func (a *autoClient) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return nil
	}
	a.closed = true
	if a.conn != nil {
		err := a.conn.Close()
		a.conn = nil
		return err
	}
	return nil
}
