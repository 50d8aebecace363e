package httpx

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http/httputil"
	"strconv"
	"strings"
	"sync"
	"time"

	"bitdew/internal/netsrv"
	"bitdew/internal/repository"
)

// Server serves a repository backend over HTTP at /data/<ref>.
type Server struct {
	srv     netsrv.Server
	backend repository.Backend
}

// NewServer starts an HTTP transfer server on addr.
func NewServer(backend repository.Backend, addr string) (*Server, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("httpx: listen %s: %w", addr, err)
	}
	return serve(backend, lis), nil
}

func serve(backend repository.Backend, lis net.Listener) *Server {
	s := &Server{backend: backend}
	s.srv.Serve(lis, s.serveConn)
	return s
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.srv.Addr() }

// Close shuts the server down: it stops listening, severs every open
// connection and returns once their goroutines have.
func (s *Server) Close() error { return s.srv.Close() }

// readers holds the connections' head readers between connections.
var readers = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, readBuf) }}

// serverConn is one connection's state across its exchanges.
type serverConn struct {
	backend repository.Backend
	conn    net.Conn
	br      *bufio.Reader
	deadline
	h       head             // the request being answered
	scratch []byte           // the response head
	limit   io.LimitedReader // the body in flight, either way
	// close is set for an exchange after which the stream cannot carry
	// another: the peer said so, or a request body was left unread.
	close bool
}

func (s *Server) serveConn(conn net.Conn) {
	br := readers.Get().(*bufio.Reader)
	br.Reset(conn)
	defer func() {
		br.Reset(nil)
		readers.Put(br)
	}()
	sc := &serverConn{backend: s.backend, conn: conn, br: br}
	for {
		sc.keep(conn, serverIdle)
		err := readHead(br, &sc.h, true)
		switch {
		case err == nil:
			sc.keep(conn, exchangeTimeout)
			err = sc.exchange()
		case errors.Is(err, errTooLarge):
			sc.close = true
			err = sc.answer("431 Request Header Fields Too Large", "request head larger than 8 KiB")
		case errors.Is(err, errMalformed):
			sc.close = true
			err = sc.answer("400 Bad Request", "malformed request")
		}
		if err != nil {
			return // the peer went away, idle or not: nobody to answer
		}
		if sc.close {
			sc.hangUp()
			return
		}
	}
}

// hangUp ends a connection after its last answer. The peer may still be
// sending — the body of a refused upload — and closing over unread bytes
// resets the connection, which can cost the peer the answer. So the sending
// half is closed first, and what still arrives is read and dropped until the
// peer closes too, for a moment at most.
func (sc *serverConn) hangUp() {
	if tc, ok := sc.conn.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
	sc.conn.SetReadDeadline(time.Now().Add(time.Second))
	io.Copy(io.Discard, sc.br)
}

// exchange answers one request. An error is the connection's; a refusal is
// an answer.
func (sc *serverConn) exchange() error {
	h := &sc.h
	// A request body is the put's to read; until it has, or for any other
	// method, where the next request starts is unknown.
	sc.close = h.close || h.length != 0
	ref, ok := strings.CutPrefix(h.target, "/data/")
	switch {
	case !ok:
		return sc.answer("404 Not Found", "not found")
	case ref == "":
		return sc.answer("400 Bad Request", "missing ref")
	}
	switch h.method {
	case "GET", "HEAD":
		return sc.get(ref)
	case "PUT":
		return sc.put(ref)
	case "DELETE":
		err := sc.backend.Delete(ref)
		if errors.Is(err, repository.ErrNoContent) {
			return sc.answer("404 Not Found", "not found")
		}
		if err != nil {
			return sc.answer("500 Internal Server Error", err.Error())
		}
		return sc.answer("204 No Content", "")
	}
	return sc.answer("405 Method Not Allowed", "method not allowed")
}

// get serves ref from the backend's reader, whole or the one range asked
// for; a HEAD gets the same head and no content.
func (sc *serverConn) get(ref string) error {
	h := &sc.h
	content, size, err := repository.OpenReader(sc.backend, ref)
	if err != nil {
		return sc.answer("404 Not Found", "not found")
	}
	defer content.Close()
	status, start, n := "200 OK", int64(0), size
	if h.ranged {
		var ok bool
		if start, n, ok = h.resolve(size); !ok {
			b := appendStatus(sc.scratch[:0], "416 Range Not Satisfiable")
			b = append(strconv.AppendInt(append(b, "Content-Range: bytes */"...), size, 10), "\r\n"...)
			return sc.write(appendField(b, "Content-Length", 0), "")
		}
		status = "206 Partial Content"
	}
	// Repository content is opaque, and says so.
	b := append(appendStatus(sc.scratch[:0], status), "Content-Type: application/octet-stream\r\nAccept-Ranges: bytes\r\n"...)
	b = appendField(b, "Content-Length", n)
	if h.ranged {
		b = strconv.AppendInt(append(b, "Content-Range: bytes "...), start, 10)
		b = strconv.AppendInt(append(b, '-'), start+n-1, 10)
		b = append(strconv.AppendInt(append(b, '/'), size, 10), "\r\n"...)
	}
	if err := sc.write(b, ""); err != nil || h.method == "HEAD" || n == 0 {
		return err
	}
	if _, err := content.Seek(start, io.SeekStart); err != nil {
		return err
	}
	return send(sc.conn, &sc.limit, content, n, start+n == size)
}

// put lands the request body in the backend's writer, sized by
// Content-Length, straight off the connection. Content-Range "bytes
// <off>-*/*" resumes at off, which must be the stored size; absent means a
// whole-content upload, which replaces the ref only once the whole body has
// arrived.
func (sc *serverConn) put(ref string) error {
	h := &sc.h
	off := max(h.contentFrom, 0)
	// A ranged upload from zero extends nothing, so nothing may be there;
	// past zero OpenWriter holds the offset against the size.
	if h.contentFrom == 0 {
		if cur, err := sc.backend.Size(ref); err == nil && cur != 0 {
			return sc.answer("409 Conflict", fmt.Sprintf("resume offset 0 != stored size %d", cur))
		}
	}
	// A chunked body announces -1, which OpenWriter reads as unknown.
	dst, err := repository.OpenWriter(sc.backend, ref, off, off+h.length)
	if errors.Is(err, repository.ErrOffset) {
		return sc.answer("409 Conflict", err.Error())
	}
	if err != nil {
		return sc.answer("500 Internal Server Error", err.Error())
	}
	defer dst.Close()
	if h.expect {
		if _, err := sc.conn.Write(append(sc.scratch[:0], "HTTP/1.1 100 Continue\r\n\r\n"...)); err != nil {
			return err
		}
	}
	if h.chunked {
		if _, err = dst.ReadFrom(httputil.NewChunkedReader(sc.br)); err == nil {
			err = skipTrailer(sc.br)
		}
	} else {
		sc.limit = io.LimitedReader{R: sc.br, N: h.length}
		if _, err = dst.ReadFrom(&sc.limit); err == nil && sc.limit.N > 0 {
			err = io.ErrUnexpectedEOF
		}
	}
	if err != nil {
		return sc.answer("400 Bad Request", err.Error())
	}
	sc.close = h.close
	if err := dst.Commit(); err != nil {
		return sc.answer("500 Internal Server Error", err.Error())
	}
	return sc.answer("204 No Content", "")
}

// answer sends a response that carries no repository content: a bare
// status, or a refusal with its reason as text.
func (sc *serverConn) answer(status, reason string) error {
	b := appendStatus(sc.scratch[:0], status)
	if reason != "" {
		reason += "\n"
		b = append(b, "Content-Type: text/plain; charset=utf-8\r\n"...)
		b = appendField(b, "Content-Length", int64(len(reason)))
	}
	return sc.write(b, reason)
}

// write ends the head in b and sends it, with text when there is some and
// the request was not a HEAD.
func (sc *serverConn) write(b []byte, text string) error {
	if sc.close {
		b = append(b, "Connection: close\r\n"...)
	}
	b = append(b, "\r\n"...)
	if sc.h.method != "HEAD" {
		b = append(b, text...)
	}
	sc.scratch = b[:0]
	_, err := sc.conn.Write(b)
	return err
}

// appendStatus begins a response head with status, code and reason.
func appendStatus(b []byte, status string) []byte {
	return append(append(append(b, "HTTP/1.1 "...), status...), "\r\n"...)
}
