// Package rpc is BitDew's communication substrate, standing in for the Java
// RMI used by the original prototype (paper §3.5). It provides a small
// request/response protocol in the plane's schema codec (internal/codec)
// over three interchangeable transports:
//
//   - local: direct in-process dispatch (the paper's "local" configuration,
//     where a simple function call replaces client/server communication);
//   - tcp on loopback: the paper's "RMI local" configuration;
//   - tcp with injected round-trip latency: the paper's "RMI remote"
//     configuration when both endpoints live in one test process.
//
// Services are registered on a Mux under (service, method) names; the D*
// services of the runtime environment (Data Catalog, Data Repository, Data
// Transfer, Data Scheduler) are all served through one Mux, mirroring the
// paper's service container.
package rpc

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"time"

	"bitdew/internal/codec"
)

// ErrNoSuchMethod is returned when a call names an unregistered service or
// method.
var ErrNoSuchMethod = errors.New("rpc: no such service or method")

// Handler processes one call: the arguments' blob in, the reply's blob out.
// args is the handler's only until it returns. Use Register to install
// strongly-typed handlers.
type Handler func(args []byte) ([]byte, error)

// Mux routes calls to handlers by service and method name. The zero value is
// not usable; call NewMux.
type Mux struct {
	mu       sync.RWMutex
	handlers map[string]map[string]Handler
	payloads []reflect.Type // every Register's argument and reply type
}

// NewMux returns an empty service multiplexer.
func NewMux() *Mux {
	return &Mux{handlers: make(map[string]map[string]Handler)}
}

// Handle installs a raw handler for (service, method), replacing any
// previous one.
func (m *Mux) Handle(service, method string, h Handler) {
	m.mu.Lock()
	defer m.mu.Unlock()
	sm := m.handlers[service]
	if sm == nil {
		sm = make(map[string]Handler)
		m.handlers[service] = sm
	}
	sm[method] = h
}

// Services returns the sorted list of registered service names.
func (m *Mux) Services() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.handlers))
	for s := range m.handlers {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Payloads returns the argument and reply types of every typed handler:
// the closed universe of what the plane puts on the wire.
func (m *Mux) Payloads() []reflect.Type {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]reflect.Type(nil), m.payloads...)
}

// dispatch runs the handler for (service, method) on raw argument bytes. The
// names are a frame's own bytes: the lookup makes no strings of them.
func (m *Mux) dispatch(service, method, args []byte) ([]byte, error) {
	m.mu.RLock()
	h := m.handlers[string(service)][string(method)]
	m.mu.RUnlock()
	if h == nil {
		return nil, fmt.Errorf("%w: %s.%s", ErrNoSuchMethod, service, method)
	}
	return h(args)
}

// Register installs a typed handler: the argument is decoded into A, the
// handler runs, and its reply R is encoded back. Both types are compiled
// here, so one the codec cannot carry (an interface, a channel, a func)
// stops the boot with its field path instead of failing its first call; it
// is a bug in the caller, hence the panic.
func Register[A, R any](m *Mux, service, method string, fn func(A) (R, error)) {
	types := []reflect.Type{reflect.TypeOf((*A)(nil)).Elem(), reflect.TypeOf((*R)(nil)).Elem()}
	for _, t := range types {
		if err := codec.Compile(t); err != nil {
			panic(fmt.Sprintf("rpc: registering %s.%s: %v", service, method, err))
		}
	}
	m.mu.Lock()
	m.payloads = append(m.payloads, types...)
	m.mu.Unlock()
	m.Handle(service, method, func(raw []byte) ([]byte, error) {
		var args A
		if err := codec.Unmarshal(raw, &args); err != nil {
			return nil, fmt.Errorf("rpc: decoding args of %s.%s: %w", service, method, err)
		}
		reply, err := fn(args)
		if err != nil {
			return nil, err
		}
		return codec.Marshal(reply)
	})
}

// Client issues calls against a Mux, either in-process or across a network
// transport. Both built-in clients also implement BatchCaller (N logical
// calls in one round trip) and RoundTripCounter; use the package-level
// CallBatch helper to stay portable across client implementations.
type Client interface {
	// Call invokes service.method with args, decoding the reply into reply
	// (which must be a pointer, or nil to discard).
	Call(service, method string, args, reply any) error
	// Close releases the transport. Calls after Close fail.
	Close() error
}

// localClient dispatches directly into a Mux, optionally sleeping to model
// network latency.
type localClient struct {
	mux     *Mux
	latency time.Duration
	frames  frameCounter
	closed  sync.Once
	done    chan struct{}
}

// NewLocalClient returns a Client that invokes handlers by direct function
// call. A non-zero latency is slept once per call (round trip), letting
// tests model a remote link without sockets.
func NewLocalClient(m *Mux, latency time.Duration) Client {
	return &localClient{mux: m, latency: latency, done: make(chan struct{})}
}

func (c *localClient) Call(service, method string, args, reply any) error {
	select {
	case <-c.done:
		return errors.New("rpc: client closed")
	default:
	}
	if c.latency > 0 {
		time.Sleep(c.latency)
	}
	c.frames.inc()
	raw, err := codec.Marshal(args)
	if err != nil {
		return fmt.Errorf("rpc: encoding args of %s.%s: %w", service, method, err)
	}
	out, err := c.mux.dispatch([]byte(service), []byte(method), raw)
	if err != nil {
		return err
	}
	if reply == nil {
		return nil
	}
	return codec.Unmarshal(out, reply)
}

// CallBatch dispatches every call in one simulated round trip: the modelled
// latency is charged once for the whole batch, matching the wire transport.
func (c *localClient) CallBatch(calls []*Call) error {
	if len(calls) == 0 {
		return nil
	}
	select {
	case <-c.done:
		return failCalls(calls, errors.New("rpc: client closed"))
	default:
	}
	if c.latency > 0 {
		time.Sleep(c.latency)
	}
	c.frames.inc()
	items, err := appendItems(nil, calls)
	if err != nil {
		return failCalls(calls, err)
	}
	return applyReplies(calls, c.mux.dispatchBatch(items))
}

// RoundTrips counts the (simulated) request frames issued by this client.
func (c *localClient) RoundTrips() uint64 { return c.frames.RoundTrips() }

func (c *localClient) Close() error {
	c.closed.Do(func() { close(c.done) })
	return nil
}
