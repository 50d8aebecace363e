// Package netsrv owns the lifecycle every network server of the plane
// shares: a listener, the connections it accepted, the goroutines serving
// them and the signal that stops them. The rpc, db, http, ftp and swarm
// servers keep only their per-connection handlers.
//
// The close protocol:
//   - a connection accepted after Close has begun is closed unserved: the
//     connection set is checked under its lock, so Close's sweep and the
//     accept loop cannot miss each other;
//   - Close is idempotent, and returns once every goroutine it owns has;
//   - an Accept error other than the one Close causes (out of descriptors,
//     most likely) pauses the loop before the next Accept, so it waits for
//     some to close instead of spinning.
package netsrv

import (
	"net"
	"sync"
	"time"
)

// acceptPause is how long the accept loop waits after a failed Accept.
const acceptPause = 5 * time.Millisecond

// Server accepts connections on one listener and serves each on its own
// goroutine until Close. The zero value is ready for Serve, which is called
// once; a Server is not copied after that.
type Server struct {
	lis  net.Listener
	done chan struct{}
	wg   sync.WaitGroup

	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

// Serve starts accepting on lis and returns at once. Each connection is
// handed to handle on its own goroutine and closed when handle returns;
// Close closes it earlier, so a handler blocked reading it returns then.
func (s *Server) Serve(lis net.Listener, handle func(net.Conn)) {
	s.lis = lis
	s.done = make(chan struct{})
	s.conns = make(map[net.Conn]struct{})
	s.wg.Add(1)
	go s.acceptLoop(handle)
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.lis.Addr().String() }

// Done is closed when Close begins.
func (s *Server) Done() <-chan struct{} { return s.done }

// Go runs f on a goroutine that Close waits for, so f returns once Done
// is closed. It is called only from a handler or from a function Go runs:
// while one of those runs, Close has not finished waiting.
func (s *Server) Go(f func()) {
	s.wg.Add(1)
	go s.run(f)
}

func (s *Server) run(f func()) {
	defer s.wg.Done()
	f()
}

// Close stops accepting, closes every connection and waits for the
// goroutines serving them, and those Go started, to return. Calls after
// the first return nil at once.
func (s *Server) Close() error {
	s.mu.Lock()
	select {
	case <-s.done:
		s.mu.Unlock()
		return nil
	default:
	}
	close(s.done)
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	err := s.lis.Close()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop(handle func(net.Conn)) {
	defer s.wg.Done()
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			select {
			case <-s.done:
				return
			case <-time.After(acceptPause):
				continue
			}
		}
		s.mu.Lock()
		select {
		case <-s.done:
			s.mu.Unlock()
			conn.Close()
			return
		default:
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn, handle)
	}
}

func (s *Server) serveConn(conn net.Conn, handle func(net.Conn)) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	handle(conn)
}
