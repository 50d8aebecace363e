package rpc

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bitdew/internal/codec"
)

// ErrTransport marks a failure of the connection itself (broken link, dead
// peer, failed redial) as opposed to an error returned by the remote
// handler. Reconnecting clients retry calls that fail with it; application
// errors are never retried.
var ErrTransport = errors.New("rpc: transport failure")

// ErrDeadline marks a call that outlived its per-call timeout (see
// WithCallTimeout). It is deliberately not an ErrTransport: the request may
// still be executing on the server, so reconnecting clients must not retry
// it — a replay could double-apply a non-idempotent operation. Callers that
// know an operation is idempotent can retry explicitly.
var ErrDeadline = errors.New("rpc: call deadline exceeded")

// request and response are the wire messages. Args and Reply are pre-encoded
// gob payloads so the framing codec stays independent of call signatures.
// A non-empty Batch makes the frame a multi-call: N logical calls sharing
// one write/read cycle (and one latency charge on each side); Service,
// Method and Args are then unused.
type request struct {
	Seq     uint64
	Service string
	Method  string
	Args    []byte
	Batch   []batchItem
}

type response struct {
	Seq   uint64
	Err   string
	Reply []byte
	Batch []batchReply
}

// batchItem is one logical call of a multi-call frame.
type batchItem struct {
	Service string
	Method  string
	Args    []byte
}

// batchReply is the per-call outcome of a multi-call frame.
type batchReply struct {
	Err   string
	Reply []byte
}

// Server accepts connections and dispatches requests into a Mux. Each
// connection is served by one goroutine; requests are dispatched off the
// read loop so a slow handler does not head-of-line-block the link. Dispatch
// runs on a bounded pool of persistent workers, grown lazily up to
// maxWorkers; when every worker is busy a transient goroutine picks up the
// frame instead of queueing it, so concurrency stays unbounded (the capacity
// experiments rely on WithServeLimit being the only bottleneck) while the
// steady-state request rate stops paying a goroutine spawn per frame.
type Server struct {
	mux     *Mux
	lis     net.Listener
	latency time.Duration
	// limit, when non-nil, is a server-wide semaphore capping concurrent
	// frame dispatches (see WithServeLimit).
	limit chan struct{}

	work       chan func()
	workers    atomic.Int32
	maxWorkers int32

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	done  chan struct{}
	wg    sync.WaitGroup
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithServerLatency makes the server sleep d before answering each request,
// modelling a distant deployment (the paper's "RMI remote" row) without
// needing a second machine.
func WithServerLatency(d time.Duration) ServerOption {
	return func(s *Server) { s.latency = d }
}

// WithServeLimit caps the server at n concurrently processed request
// frames, across all connections; excess frames queue. Together with
// WithServerLatency this models a service host of finite capacity — n
// request slots each occupied for the modelled service time — which is how
// the shard-scaling experiments make one emulated host a measurable
// bottleneck that adding shards genuinely relieves. n <= 0 leaves the
// server unlimited.
func WithServeLimit(n int) ServerOption {
	return func(s *Server) {
		if n > 0 {
			s.limit = make(chan struct{}, n)
		}
	}
}

// NewServer starts serving m on lis until Close is called.
func NewServer(lis net.Listener, m *Mux, opts ...ServerOption) *Server {
	s := &Server{
		mux:        m,
		lis:        lis,
		conns:      make(map[net.Conn]struct{}),
		done:       make(chan struct{}),
		work:       make(chan func()),
		maxWorkers: int32(8 * runtime.GOMAXPROCS(0)),
	}
	for _, o := range opts {
		o(s)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Listen is a convenience wrapper starting a TCP server on addr
// (e.g. "127.0.0.1:0").
func Listen(addr string, m *Mux, opts ...ServerOption) (*Server, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rpc: listen %s: %w", addr, err)
	}
	return NewServer(lis, m, opts...), nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.lis.Addr().String() }

// Close stops accepting, closes every open connection and waits for
// connection goroutines to drain.
func (s *Server) Close() error {
	select {
	case <-s.done:
		return nil
	default:
	}
	close(s.done)
	err := s.lis.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			select {
			case <-s.done:
				return
			default:
			}
			// Transient accept failure; keep serving.
			continue
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	var wmu sync.Mutex // serialises concurrent response writes
	for {
		var req request
		if err := dec.Decode(&req); err != nil {
			return
		}
		s.dispatchAsync(func() { s.handle(req, conn, enc, &wmu) })
	}
}

// handle answers one request frame: capacity gate, modelled latency,
// dispatch, response write.
func (s *Server) handle(req request, conn net.Conn, enc *gob.Encoder, wmu *sync.Mutex) {
	if s.limit != nil {
		s.limit <- struct{}{}
		defer func() { <-s.limit }()
	}
	if s.latency > 0 {
		time.Sleep(s.latency)
	}
	var resp response
	if len(req.Batch) > 0 {
		resp = response{Seq: req.Seq, Batch: s.mux.dispatchBatch(req.Batch)}
	} else {
		reply, err := s.mux.dispatch(req.Service, req.Method, req.Args)
		resp = response{Seq: req.Seq, Reply: reply}
		if err != nil {
			resp.Err = err.Error()
		}
	}
	wmu.Lock()
	encErr := enc.Encode(resp)
	wmu.Unlock()
	if encErr != nil {
		conn.Close()
	}
}

// dispatchAsync runs fn off the caller's goroutine: on an idle pool worker
// when one is parked, on a new persistent worker while the pool is below
// its cap, and on a transient goroutine otherwise — a frame is never queued
// behind a busy handler.
func (s *Server) dispatchAsync(fn func()) {
	select {
	case s.work <- fn:
		return
	default:
	}
	for {
		n := s.workers.Load()
		if n >= s.maxWorkers {
			break
		}
		if s.workers.CompareAndSwap(n, n+1) {
			s.wg.Add(1)
			go s.worker(fn)
			return
		}
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		fn()
	}()
}

// worker runs its first task, then serves the shared queue until Close.
func (s *Server) worker(fn func()) {
	defer s.wg.Done()
	fn()
	for {
		select {
		case fn := <-s.work:
			fn()
		case <-s.done:
			return
		}
	}
}

// tcpClient is a pipelined client: many calls may be in flight on the single
// connection, matched back to callers by sequence number.
type tcpClient struct {
	conn    net.Conn
	enc     *gob.Encoder
	latency time.Duration
	// timeout bounds each round trip (WithCallTimeout); zero waits forever.
	timeout time.Duration
	frames  frameCounter
	// faults, when armed (WithFaultPlan), scripts per-frame faults for
	// deterministic failure testing.
	faults *FaultPlan

	wmu sync.Mutex // guards enc

	mu      sync.Mutex // guards seq, pending, closed
	seq     uint64
	pending map[uint64]chan response
	closed  bool
	readErr error
}

// DialOption configures a dialled client.
type DialOption func(*tcpClient)

// WithCallLatency sleeps d before sending each request, modelling one-way
// client-side network delay.
func WithCallLatency(d time.Duration) DialOption {
	return func(c *tcpClient) { c.latency = d }
}

// WithCallTimeout bounds every round trip on the client at d: a call whose
// response has not arrived within d of the request being sent fails with
// ErrDeadline instead of blocking forever on a peer that stopped answering
// without closing the connection. The timer is armed per call and only when
// the option is set, so clients that omit it pay nothing. d <= 0 disables
// the bound.
func WithCallTimeout(d time.Duration) DialOption {
	return func(c *tcpClient) { c.timeout = d }
}

// Dial connects to a Server at addr.
func Dial(addr string, opts ...DialOption) (Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rpc: dial %s: %w", addr, err)
	}
	c := &tcpClient{
		conn:    conn,
		enc:     gob.NewEncoder(conn),
		pending: make(map[uint64]chan response),
	}
	for _, o := range opts {
		o(c)
	}
	go c.readLoop()
	return c, nil
}

func (c *tcpClient) readLoop() {
	dec := gob.NewDecoder(c.conn)
	for {
		var resp response
		if err := dec.Decode(&resp); err != nil {
			c.failAll(err)
			return
		}
		c.mu.Lock()
		ch := c.pending[resp.Seq]
		delete(c.pending, resp.Seq)
		c.mu.Unlock()
		if ch != nil {
			ch <- resp
		}
	}
}

func (c *tcpClient) failAll(err error) {
	if err == io.EOF {
		err = errors.New("connection closed")
	}
	c.mu.Lock()
	c.readErr = err
	for seq, ch := range c.pending {
		delete(c.pending, seq)
		// Closing (instead of answering) marks the outcome as a transport
		// failure: roundTrip turns it into an ErrTransport, never into an
		// application error.
		close(ch)
	}
	c.mu.Unlock()
}

// roundTrip sends one request frame (filling in its Seq) and waits for the
// matching response, charging the injected latency and the frame counter
// exactly once — whether the frame carries one call or a whole batch.
func (c *tcpClient) roundTrip(req request) (response, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return response{}, errors.New("rpc: client closed")
	}
	if c.readErr != nil {
		err := c.readErr
		c.mu.Unlock()
		return response{}, fmt.Errorf("%w: %v", ErrTransport, err)
	}
	c.seq++
	req.Seq = c.seq
	ch := make(chan response, 1)
	c.pending[req.Seq] = ch
	c.mu.Unlock()

	if c.latency > 0 {
		time.Sleep(c.latency)
	}
	c.frames.inc()
	var fault Fault
	if c.faults != nil {
		fault = c.faults.next()
	}
	if fault.Action == FaultDrop {
		// The frame is lost and the link breaks: nothing is written, and
		// closing the connection makes the read loop fail every pending
		// call (including this one) with ErrTransport below.
		c.conn.Close()
	} else {
		if fault.Action == FaultDelay && fault.Delay > 0 {
			time.Sleep(fault.Delay)
		}
		c.wmu.Lock()
		err := c.enc.Encode(req)
		if err == nil && fault.Action == FaultDup {
			// Deliver the frame twice; the server will answer twice with
			// the same seq and the client must discard the stray.
			err = c.enc.Encode(req)
		}
		c.wmu.Unlock()
		if err != nil {
			c.mu.Lock()
			delete(c.pending, req.Seq)
			c.mu.Unlock()
			return response{}, fmt.Errorf("%w: sending request: %v", ErrTransport, err)
		}
	}
	if c.timeout > 0 {
		timer := time.NewTimer(c.timeout)
		defer timer.Stop()
		select {
		case resp, ok := <-ch:
			if !ok {
				return response{}, c.transportErr()
			}
			return resp, nil
		case <-timer.C:
			// Abandon the call: the response, if it ever arrives, is dropped
			// into the channel's buffer and garbage-collected with it.
			c.mu.Lock()
			delete(c.pending, req.Seq)
			c.mu.Unlock()
			return response{}, fmt.Errorf("%w after %v", ErrDeadline, c.timeout)
		}
	}
	resp, ok := <-ch
	if !ok {
		return response{}, c.transportErr()
	}
	return resp, nil
}

// transportErr wraps the read loop's terminal error as an ErrTransport.
func (c *tcpClient) transportErr() error {
	c.mu.Lock()
	readErr := c.readErr
	c.mu.Unlock()
	return fmt.Errorf("%w: %v", ErrTransport, readErr)
}

func (c *tcpClient) Call(service, method string, args, reply any) error {
	raw, err := codec.Marshal(args)
	if err != nil {
		return fmt.Errorf("rpc: encoding args of %s.%s: %w", service, method, err)
	}
	resp, err := c.roundTrip(request{Service: service, Method: method, Args: raw})
	if err != nil {
		return fmt.Errorf("rpc: %s.%s: %w", service, method, err)
	}
	if resp.Err != "" {
		return errors.New(resp.Err)
	}
	if reply == nil {
		return nil
	}
	return codec.Unmarshal(resp.Reply, reply)
}

// CallBatch ships every call in one request frame: one write/read cycle,
// one latency charge on each side, per-call errors preserved.
func (c *tcpClient) CallBatch(calls []*Call) error {
	if len(calls) == 0 {
		return nil
	}
	items, err := encodeCalls(calls)
	if err != nil {
		return failCalls(calls, err)
	}
	resp, err := c.roundTrip(request{Batch: items})
	if err != nil {
		return failCalls(calls, err)
	}
	if resp.Err != "" {
		return failCalls(calls, errors.New(resp.Err))
	}
	if err := applyReplies(calls, resp.Batch); err != nil {
		return failCalls(calls, err)
	}
	return nil
}

// RoundTrips counts the request frames sent on this connection.
func (c *tcpClient) RoundTrips() uint64 { return c.frames.RoundTrips() }

func (c *tcpClient) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	return c.conn.Close()
}
