package rpc

import (
	"bufio"
	"encoding/binary"
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

// request and response are the wire messages; a connection carries them as
// frames of `uint32 length | codec blob`, one write each. Args and Reply are
// blobs themselves, so the framing stays independent of call signatures.
// A non-empty Batch makes the frame a multi-call: N logical calls sharing
// one write/read cycle (and one latency charge on each side); Service,
// Method and Args are then unused. Names travel as bytes so that both ends
// fill and decode them in place, in a slot or job that is reused.
type request struct {
	Seq     uint64
	Service []byte
	Method  []byte
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
	Service []byte
	Method  []byte
	Args    []byte
}

// batchReply is the per-call outcome of a multi-call frame.
type batchReply struct {
	Err   string
	Reply []byte
}

const (
	// maxFrame bounds a frame's blob, as gob bounded a message: a reader
	// refuses a longer one before allocating for it, a writer before sending.
	maxFrame = 1 << 30
	// maxPooled is the largest frame buffer a pooled slot or job keeps.
	maxPooled = 64 << 10
)

// appendFrame encodes msg as one frame into buf[:0].
func appendFrame(buf []byte, msg any) ([]byte, error) {
	buf, err := codec.Append(append(buf[:0], 0, 0, 0, 0), msg)
	if err == nil && len(buf)-4 > maxFrame {
		err = fmt.Errorf("rpc: a frame of %d bytes exceeds the bound of %d", len(buf)-4, maxFrame)
	}
	binary.BigEndian.PutUint32(buf, uint32(len(buf)-4))
	return buf, err
}

// readFrame reads the next frame's blob into buf, grown if it must be.
func readFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	hdr, err := r.Peek(4)
	if err != nil {
		return buf, err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n > maxFrame {
		return buf, fmt.Errorf("rpc: a frame of %d bytes exceeds the bound of %d", n, maxFrame)
	}
	r.Discard(4) // cannot fail after the Peek
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	_, err = io.ReadFull(r, buf[:n])
	return buf[:n], err
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

	work       chan *job
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
		work:       make(chan *job),
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
		select {
		case <-s.done:
			// Accepted while Close was closing the others: Close may be past
			// its sweep, and would wait for ever for a connection nobody ends.
			s.mu.Unlock()
			conn.Close()
			return
		default:
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// job is one request frame on its way through the server: decoded on the
// connection's read loop, answered on a worker. Jobs are pooled, so a frame
// decodes into buffers the last one left behind.
type job struct {
	conn  net.Conn
	wmu   *sync.Mutex // serialises the connection's response writes
	req   request
	resp  response
	frame []byte
}

var jobs = sync.Pool{New: func() any { return new(job) }}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	r := bufio.NewReader(conn)
	var wmu sync.Mutex
	var buf []byte
	for {
		var err error
		if buf, err = readFrame(r, buf); err != nil {
			return
		}
		j := jobs.Get().(*job)
		j.conn, j.wmu = conn, &wmu
		if err := codec.Unmarshal(buf, &j.req); err != nil {
			return
		}
		s.dispatchAsync(j)
	}
}

// handle answers one request frame: capacity gate, modelled latency,
// dispatch, response write.
func (s *Server) handle(j *job) {
	if s.limit != nil {
		s.limit <- struct{}{}
		defer func() { <-s.limit }()
	}
	if s.latency > 0 {
		time.Sleep(s.latency)
	}
	j.resp = response{Seq: j.req.Seq}
	if len(j.req.Batch) > 0 {
		j.resp.Batch = s.mux.dispatchBatch(j.req.Batch)
	} else if reply, err := s.mux.dispatch(j.req.Service, j.req.Method, j.req.Args); err != nil {
		j.resp.Err = err.Error()
	} else {
		j.resp.Reply = reply
	}
	var err error
	if j.frame, err = appendFrame(j.frame, &j.resp); err != nil {
		// An answer too large to frame fails its call, not the connection.
		j.resp = response{Seq: j.req.Seq, Err: err.Error()}
		j.frame, err = appendFrame(j.frame, &j.resp)
	}
	if err == nil {
		j.wmu.Lock()
		_, err = j.conn.Write(j.frame)
		j.wmu.Unlock()
	}
	if err != nil {
		j.conn.Close()
	}
	if cap(j.frame)+cap(j.req.Args) <= maxPooled {
		j.resp = response{}
		jobs.Put(j)
	}
}

// dispatchAsync answers j off the caller's goroutine: on an idle pool worker
// when one is parked, on a new persistent worker while the pool is below
// its cap, and on a transient goroutine otherwise — a frame is never queued
// behind a busy handler.
func (s *Server) dispatchAsync(j *job) {
	select {
	case s.work <- j:
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
			go s.worker(j)
			return
		}
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.handle(j)
	}()
}

// worker answers its first job, then serves the shared queue until Close.
func (s *Server) worker(j *job) {
	defer s.wg.Done()
	s.handle(j)
	for {
		select {
		case j := <-s.work:
			s.handle(j)
		case <-s.done:
			return
		}
	}
}

// tcpClient is a pipelined client: many calls may be in flight on the single
// connection, matched back to callers by sequence number.
type tcpClient struct {
	conn    net.Conn
	latency time.Duration
	// timeout bounds each round trip (WithCallTimeout); zero waits forever.
	timeout time.Duration
	frames  frameCounter
	// faults, when armed (WithFaultPlan), scripts per-frame faults for
	// deterministic failure testing.
	faults *FaultPlan

	wmu sync.Mutex // serialises request writes

	mu      sync.Mutex // guards seq, pending, closed
	seq     uint64
	pending map[uint64]chan response
	closed  bool
	readErr error
}

// slot is what one in-flight call needs: the request and the frame it is
// encoded into, the channel its response arrives on, and the timer that
// bounds the wait. Slots are pooled; one goes back only when nothing can
// still send on its channel, that is, after its response arrived or before
// the call was registered.
type slot struct {
	req   request
	frame []byte
	ch    chan response
	timer *time.Timer // stopped, and drained, between uses
}

var slots = sync.Pool{New: func() any {
	s := &slot{ch: make(chan response, 1), timer: time.NewTimer(time.Hour)}
	s.timer.Stop()
	return s
}}

func (s *slot) release() {
	if cap(s.frame) <= maxPooled {
		slots.Put(s)
	}
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
		pending: make(map[uint64]chan response),
	}
	for _, o := range opts {
		o(c)
	}
	go c.readLoop()
	return c, nil
}

func (c *tcpClient) readLoop() {
	r := bufio.NewReader(c.conn)
	var buf []byte
	var resp response
	for {
		var err error
		if buf, err = readFrame(r, buf); err == nil {
			resp = response{} // the last one's Reply belongs to its caller
			err = codec.Unmarshal(buf, &resp)
		}
		if err != nil {
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

// roundTrip sends s.req as one frame (filling in its Seq) and waits for the
// matching response, charging the injected latency and the frame counter
// exactly once — whether the frame carries one call or a whole batch. It
// takes the slot over: s is released, or left to the collector.
func (c *tcpClient) roundTrip(s *slot) (response, error) {
	c.mu.Lock()
	var err error
	switch {
	case c.closed:
		err = errors.New("rpc: client closed")
	case c.readErr != nil:
		err = fmt.Errorf("%w: %v", ErrTransport, c.readErr)
	}
	if err != nil {
		c.mu.Unlock()
		s.release()
		return response{}, err
	}
	c.seq++
	s.req.Seq = c.seq
	c.pending[s.req.Seq] = s.ch
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
		if s.frame, err = appendFrame(s.frame, &s.req); err == nil {
			c.wmu.Lock()
			_, err = c.conn.Write(s.frame)
			if err == nil && fault.Action == FaultDup {
				// Deliver the frame twice; the server will answer twice with
				// the same seq and the client must discard the stray.
				_, err = c.conn.Write(s.frame)
			}
			c.wmu.Unlock()
			if err != nil {
				err = fmt.Errorf("%w: sending request: %v", ErrTransport, err)
			}
		}
		if err != nil {
			c.mu.Lock()
			delete(c.pending, s.req.Seq)
			c.mu.Unlock()
			return response{}, err
		}
	}
	var expired <-chan time.Time
	if c.timeout > 0 {
		s.timer.Reset(c.timeout)
		expired = s.timer.C
	}
	select {
	case resp, ok := <-s.ch:
		if !ok {
			return response{}, c.transportErr()
		}
		if expired != nil && !s.timer.Stop() {
			<-s.timer.C
		}
		s.release()
		return resp, nil
	case <-expired:
		// Abandon the call and its slot: the response, if it ever arrives, is
		// dropped into the channel's buffer and collected with it.
		c.mu.Lock()
		delete(c.pending, s.req.Seq)
		c.mu.Unlock()
		return response{}, fmt.Errorf("%w after %v", ErrDeadline, c.timeout)
	}
}

// transportErr wraps the read loop's terminal error as an ErrTransport.
func (c *tcpClient) transportErr() error {
	c.mu.Lock()
	readErr := c.readErr
	c.mu.Unlock()
	return fmt.Errorf("%w: %v", ErrTransport, readErr)
}

func (c *tcpClient) Call(service, method string, args, reply any) error {
	s := slots.Get().(*slot)
	s.req.Service = append(s.req.Service[:0], service...)
	s.req.Method = append(s.req.Method[:0], method...)
	s.req.Batch = s.req.Batch[:0]
	var err error
	if s.req.Args, err = codec.Append(s.req.Args[:0], args); err != nil {
		s.release()
		return fmt.Errorf("rpc: encoding args of %s.%s: %w", service, method, err)
	}
	resp, err := c.roundTrip(s)
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
	s := slots.Get().(*slot)
	s.req.Service, s.req.Method, s.req.Args = s.req.Service[:0], s.req.Method[:0], s.req.Args[:0]
	var err error
	if s.req.Batch, err = appendItems(s.req.Batch[:0], calls); err != nil {
		s.release()
		return failCalls(calls, err)
	}
	resp, err := c.roundTrip(s)
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
