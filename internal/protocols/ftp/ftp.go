// Package ftp implements the client/server file-transfer protocol of the
// BitDew back-end layer. The original prototype drove a ProFTPD server
// through the apache commons-net FTP client; this package provides an
// equivalent single-source transfer protocol over TCP with the properties
// the Data Transfer service relies on: per-file addressing, SIZE probing
// and offset-based resume of interrupted transfers in both directions.
//
// Wire protocol (one text command line, then optional binary payload):
//
//	SIZE <ref>\n                 -> OK <n>\n | ERR <msg>\n
//	RETR <ref> <offset>\n        -> OK <n>\n then n raw bytes
//	STOR <ref> <offset> <n>\n    -> OK\n, client sends n bytes, -> DONE\n
//	QUIT\n                       -> connection closes
package ftp

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"bitdew/internal/repository"
)

// DefaultIdleTimeout bounds how long a connection may sit without making
// progress (no command read, no payload byte transferred) before the
// server severs it. A peer that dies without closing its socket would
// otherwise pin a goroutine and a connection slot until Close — the
// paper's transient-fault model makes such peers a normal operating
// condition, not an anomaly.
const DefaultIdleTimeout = 2 * time.Minute

// Server serves a repository backend over the FTP-like protocol.
type Server struct {
	backend repository.Backend
	lis     net.Listener
	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	done    chan struct{}
	wg      sync.WaitGroup

	// Throttle, when positive, caps per-connection throughput in bytes/s;
	// benchmarks use it to emulate constrained server uplinks.
	throttle int64
	// idleTimeout is the per-connection progress deadline; zero disables.
	idleTimeout time.Duration
}

// Option configures a Server.
type Option func(*Server)

// WithThrottle caps each connection's send rate at bps bytes per second.
func WithThrottle(bps int64) Option {
	return func(s *Server) { s.throttle = bps }
}

// WithIdleTimeout overrides DefaultIdleTimeout; d <= 0 disables the
// progress deadline entirely (tests that deliberately stall use this).
func WithIdleTimeout(d time.Duration) Option {
	return func(s *Server) { s.idleTimeout = d }
}

// NewServer starts serving backend on addr ("127.0.0.1:0" picks a port).
func NewServer(backend repository.Backend, addr string, opts ...Option) (*Server, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ftp: listen %s: %w", addr, err)
	}
	s := &Server{
		backend:     backend,
		lis:         lis,
		conns:       make(map[net.Conn]struct{}),
		done:        make(chan struct{}),
		idleTimeout: DefaultIdleTimeout,
	}
	for _, o := range opts {
		o(s)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.lis.Addr().String() }

// Close stops the server and severs open connections.
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
				continue
			}
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
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	for {
		if s.idleTimeout > 0 {
			conn.SetDeadline(time.Now().Add(s.idleTimeout))
		}
		line, err := r.ReadString('\n')
		if err != nil {
			return
		}
		fields := strings.Fields(strings.TrimSpace(line))
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "SIZE":
			if len(fields) != 2 {
				fmt.Fprintf(w, "ERR SIZE wants 1 arg\n")
				break
			}
			n, err := s.backend.Size(fields[1])
			if err != nil {
				fmt.Fprintf(w, "ERR %v\n", err)
				break
			}
			fmt.Fprintf(w, "OK %d\n", n)
		case "RETR":
			if len(fields) != 3 {
				fmt.Fprintf(w, "ERR RETR wants 2 args\n")
				break
			}
			off, perr := strconv.ParseInt(fields[2], 10, 64)
			if perr != nil {
				fmt.Fprintf(w, "ERR bad offset\n")
				break
			}
			if err := s.retr(conn, w, fields[1], off); err != nil {
				return // stream broken mid-payload; abandon connection
			}
		case "STOR":
			if len(fields) != 4 {
				fmt.Fprintf(w, "ERR STOR wants 3 args\n")
				break
			}
			off, e1 := strconv.ParseInt(fields[2], 10, 64)
			n, e2 := strconv.ParseInt(fields[3], 10, 64)
			if e1 != nil || e2 != nil || off < 0 || n < 0 {
				fmt.Fprintf(w, "ERR bad offset or length\n")
				break
			}
			if err := s.stor(conn, r, w, fields[1], off, n); err != nil {
				return
			}
		case "QUIT":
			w.Flush()
			return
		default:
			fmt.Fprintf(w, "ERR unknown command %s\n", fields[0])
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// arm pushes conn's deadline out by the idle timeout. The payload streams
// call it once per chunk, so the deadline measures stall, not total
// duration: a slow-but-moving peer (throttled benchmarks included) keeps
// re-arming, while a dead one trips it within one idleTimeout.
func (s *Server) arm(conn net.Conn) {
	if s.idleTimeout > 0 {
		conn.SetDeadline(time.Now().Add(s.idleTimeout))
	}
}

// armedReader is the payload stream of a STOR: every chunk that arrives
// re-arms the connection's deadline.
type armedReader struct {
	s    *Server
	conn net.Conn
	r    io.Reader
}

func (a armedReader) Read(b []byte) (int, error) {
	n, err := a.r.Read(b)
	if n > 0 {
		a.s.arm(a.conn)
	}
	return n, err
}

// pacedWriter is the payload stream of a RETR: every chunk sent re-arms the
// connection's deadline and waits out the throttle.
type pacedWriter struct {
	s       *Server
	conn    net.Conn
	w       io.Writer
	limiter *throttleState
}

func (p pacedWriter) Write(b []byte) (int, error) {
	n, err := p.w.Write(b)
	if n > 0 {
		p.s.arm(p.conn)
		p.limiter.wait(int64(n))
	}
	return n, err
}

// retr streams ref from offset to the client, out of the backend's reader.
func (s *Server) retr(conn net.Conn, w *bufio.Writer, ref string, off int64) error {
	content, size, err := repository.OpenReader(s.backend, ref)
	if err != nil {
		fmt.Fprintf(w, "ERR %v\n", err)
		return w.Flush()
	}
	defer content.Close()
	if off < 0 || off > size {
		fmt.Fprintf(w, "ERR offset %d out of range\n", off)
		return w.Flush()
	}
	if _, err := content.Seek(off, io.SeekStart); err != nil {
		fmt.Fprintf(w, "ERR %v\n", err)
		return w.Flush()
	}
	if _, err := fmt.Fprintf(w, "OK %d\n", size-off); err != nil {
		return err
	}
	// Exactly the announced count, in chunks: a copy cut short or run long
	// would leave the client reading payload as status lines.
	out := pacedWriter{s: s, conn: conn, w: w, limiter: newThrottle(s.throttle)}
	if _, err := io.CopyN(out, content, size-off); err != nil {
		return err
	}
	return w.Flush()
}

// stor streams n bytes into the backend's writer for ref at offset. A
// non-zero offset must equal the current stored size (append-resume); offset
// zero restarts the file. What arrived before a broken stream is kept, as
// the prefix the client's next STOR resumes from.
func (s *Server) stor(conn net.Conn, r *bufio.Reader, w *bufio.Writer, ref string, off, n int64) error {
	dst, err := repository.OpenWriter(s.backend, ref, off, off+n)
	if err != nil {
		fmt.Fprintf(w, "ERR %v\n", err)
		return w.Flush()
	}
	defer dst.Close()
	if _, err := fmt.Fprintf(w, "OK\n"); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	_, err = io.CopyN(dst, armedReader{s: s, conn: conn, r: r}, n)
	if cerr := dst.Commit(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if _, err = fmt.Fprintf(w, "DONE\n"); err != nil {
		return err
	}
	return w.Flush()
}

// throttleState paces writes to a target rate.
type throttleState struct {
	bps   int64
	start time.Time
	sent  int64
}

func newThrottle(bps int64) *throttleState {
	return &throttleState{bps: bps, start: time.Now()}
}

// wait sleeps long enough that cumulative throughput stays at or below bps.
func (t *throttleState) wait(n int64) {
	if t.bps <= 0 {
		return
	}
	t.sent += n
	due := time.Duration(float64(t.sent) / float64(t.bps) * float64(time.Second))
	elapsed := time.Since(t.start)
	if due > elapsed {
		time.Sleep(due - elapsed)
	}
}
