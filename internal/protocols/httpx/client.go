package httpx

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http/httputil"
	"strconv"
	"sync"
	"time"
)

// Client fetches and uploads repository content over HTTP. It keeps the
// connections it has used, per address, for the next request to that
// address: as many as its callers ever had requests in flight at once, so
// their concurrency is the bound. A connection idle for clientIdle is closed
// by a later request, not reused: there is no goroutine behind the pool.
type Client struct {
	mu    sync.Mutex
	idle  map[string][]*clientConn // per address, in the order they came back
	swept time.Time                // when every address was last pruned
}

// NewClient returns a transfer client with sane timeouts.
func NewClient() *Client {
	return &Client{idle: make(map[string][]*clientConn)}
}

// clientConn is one kept connection and what an exchange on it needs.
type clientConn struct {
	net.Conn
	deadline
	br      *bufio.Reader
	h       head             // the response being read
	scratch []byte           // the request head
	limit   io.LimitedReader // the body in flight, either way
	reused  bool             // it has carried an exchange before this one
	since   time.Time        // when it went idle
}

// request is one exchange's sending half.
type request struct {
	method, addr, ref string
	rangeFrom         int64 // GET: resume offset, sent as Range when positive
	// A PUT's body: what is left of a content that can seek is announced
	// and can be sent again; any other goes chunked, once.
	body        io.Reader
	start       int64 // where a seekable body stood
	length      int64 // what is left of it; -1 when unknown
	contentFrom int64 // Content-Range start of an append; -1 without
}

func dial(addr string) (*clientConn, error) {
	conn, err := net.DialTimeout("tcp", addr, 30*time.Second)
	if err != nil {
		return nil, err
	}
	return &clientConn{Conn: conn, br: bufio.NewReaderSize(conn, readBuf)}, nil
}

// checkout returns the idle connection to addr that came back last, or a
// new one.
func (c *Client) checkout(addr string) (*clientConn, error) {
	now := time.Now()
	c.mu.Lock()
	if now.Sub(c.swept) > clientIdle {
		// An address nobody asks for again, a worker that left, must not
		// pin its connections: once per period every address is looked at.
		c.swept = now
		for a := range c.idle {
			if len(c.prune(a, now)) == 0 {
				delete(c.idle, a)
			}
		}
	}
	idle := c.prune(addr, now)
	var pc *clientConn
	if n := len(idle); n > 0 {
		pc, idle[n-1] = idle[n-1], nil
		c.idle[addr] = idle[:n-1]
	}
	c.mu.Unlock()
	if pc != nil {
		return pc, nil
	}
	return dial(addr)
}

// prune closes the connections to addr that have been idle for clientIdle,
// the front of its list, and returns the rest. The caller holds c.mu.
func (c *Client) prune(addr string, now time.Time) []*clientConn {
	idle := c.idle[addr]
	aged := 0
	for aged < len(idle) && now.Sub(idle[aged].since) > clientIdle {
		idle[aged].Close()
		aged++
	}
	if aged > 0 {
		n := copy(idle, idle[aged:])
		clear(idle[n:])
		idle = idle[:n]
		c.idle[addr] = idle
	}
	return idle
}

// release keeps pc for the next exchange, if the stream can carry one.
func (c *Client) release(addr string, pc *clientConn) {
	if pc.h.close || pc.br.Buffered() > 0 {
		pc.Close()
		return
	}
	pc.reused, pc.since = true, time.Now()
	c.mu.Lock()
	c.idle[addr] = append(c.idle[addr], pc)
	c.mu.Unlock()
}

// do sends r and reads the head of the response into the connection it
// returns. A kept connection that turns out dead — the server may have
// closed it any time since its last exchange — costs one replay on a new
// one, when the body can be sent again.
func (c *Client) do(r *request) (*clientConn, error) {
	for i := 0; i < len(r.ref); i++ {
		if b := r.ref[i]; b <= ' ' || b == 0x7f {
			return nil, fmt.Errorf("httpx: ref %q cannot go in a request line", r.ref)
		}
	}
	pc, err := c.checkout(r.addr)
	for err == nil {
		pc.keep(pc.Conn, exchangeTimeout)
		if err = pc.exchange(r); err == nil {
			return pc, nil
		}
		pc.Close()
		if !pc.reused || !r.rewind() {
			break
		}
		pc, err = dial(r.addr)
	}
	return nil, fmt.Errorf("httpx: %s %s: %w", r.method, r.ref, err)
}

// rewind puts the body back where it stood, if it can.
func (r *request) rewind() bool {
	if r.body == nil {
		return true
	}
	s, ok := r.body.(io.Seeker)
	if !ok {
		return false
	}
	_, err := s.Seek(r.start, io.SeekStart)
	return err == nil
}

// exchange writes r and reads the response head, past any 1xx.
func (pc *clientConn) exchange(r *request) error {
	b := append(append(pc.scratch[:0], r.method...), " /data/"...)
	b = append(append(b, r.ref...), " HTTP/1.1\r\nHost: "...)
	b = append(append(b, r.addr...), "\r\n"...)
	if r.rangeFrom > 0 {
		b = append(strconv.AppendInt(append(b, "Range: bytes="...), r.rangeFrom, 10), "-\r\n"...)
	}
	if r.contentFrom >= 0 {
		b = append(strconv.AppendInt(append(b, "Content-Range: bytes "...), r.contentFrom, 10), "-*/*\r\n"...)
	}
	switch {
	case r.body == nil:
	case r.length >= 0:
		b = appendField(b, "Content-Length", r.length)
	default:
		b = append(b, "Transfer-Encoding: chunked\r\n"...)
	}
	b = append(b, "\r\n"...)
	pc.scratch = b[:0]
	if _, err := pc.Write(b); err != nil {
		return err
	}
	var err error
	switch {
	case r.body == nil || r.length == 0:
	case r.length > 0:
		err = send(pc.Conn, &pc.limit, r.body, r.length, true)
	default:
		// Chunks are framed through a buffer, so that each leaves in one
		// write, not three.
		bw := bufio.NewWriter(pc.Conn)
		cw := httputil.NewChunkedWriter(bw)
		if _, err = io.Copy(cw, r.body); err == nil {
			cw.Close()
			bw.WriteString("\r\n")
			err = bw.Flush()
		}
	}
	if err != nil {
		return err
	}
	for {
		if err := readHead(pc.br, &pc.h, false); err != nil || pc.h.status/100 != 1 {
			return err
		}
	}
}

// refuse closes pc over a response the caller cannot use. Nothing of its
// body is read, so nothing of it can be taken for the next response.
func (pc *clientConn) refuse(r *request) error {
	pc.Close()
	return fmt.Errorf("httpx: %s %s: status %d", r.method, r.ref, pc.h.status)
}

// Size returns the remote size of ref on addr.
func (c *Client) Size(addr, ref string) (int64, error) {
	r := request{method: "HEAD", addr: addr, ref: ref, contentFrom: -1}
	pc, err := c.do(&r)
	if err != nil {
		return 0, err
	}
	if pc.h.status != 200 || pc.h.length < 0 {
		return 0, pc.refuse(&r)
	}
	c.release(addr, pc)
	return pc.h.length, nil
}

// Get downloads ref from addr starting at offset, writing payload to w and
// returning the number of bytes written. A resume is taken only from a 206
// that starts at offset: a server may ignore Range, and its whole content
// must not land behind the prefix.
func (c *Client) Get(addr, ref string, offset int64, w io.Writer) (int64, error) {
	r := request{method: "GET", addr: addr, ref: ref, rangeFrom: offset, contentFrom: -1}
	pc, err := c.do(&r)
	if err != nil {
		return 0, err
	}
	h := &pc.h
	if whole := offset <= 0; (whole && h.status != 200) || (!whole && (h.status != 206 || h.contentFrom != offset)) {
		return 0, pc.refuse(&r)
	}
	var n int64
	switch {
	case h.chunked:
		if n, err = io.Copy(w, httputil.NewChunkedReader(pc.br)); err == nil {
			err = skipTrailer(pc.br)
		}
	case h.length >= 0:
		pc.limit = io.LimitedReader{R: pc.br, N: h.length}
		if n, err = io.Copy(w, &pc.limit); err == nil && pc.limit.N > 0 {
			err = io.ErrUnexpectedEOF
		}
	default:
		n, err = io.Copy(w, pc.br) // to the close
	}
	if err != nil {
		pc.Close()
		return n, fmt.Errorf("httpx: GET %s: %w", ref, err)
	}
	c.release(addr, pc)
	return n, nil
}

// Put uploads content as the whole of ref on addr. Content that can seek —
// a repository reader, a *bytes.Reader, a file — is sent with its length
// announced, so the server reserves room for it once.
func (c *Client) Put(addr, ref string, content io.Reader) error {
	return c.upload(addr, ref, -1, content)
}

// Append uploads chunk at offset of ref (resume); offset must match the
// currently stored size.
func (c *Client) Append(addr, ref string, offset int64, chunk io.Reader) error {
	return c.upload(addr, ref, offset, chunk)
}

func (c *Client) upload(addr, ref string, contentFrom int64, content io.Reader) error {
	r := request{method: "PUT", addr: addr, ref: ref, body: content, length: -1, contentFrom: contentFrom}
	// What is left of content that can seek is measured, announced as
	// Content-Length, and sent again from where it stood should a kept
	// connection turn out dead. The content stays the caller's to close.
	if s, ok := content.(io.Seeker); ok {
		var err error
		if r.start, err = s.Seek(0, io.SeekCurrent); err != nil {
			return err
		}
		end, err := s.Seek(0, io.SeekEnd)
		if err != nil {
			return err
		}
		if _, err := s.Seek(r.start, io.SeekStart); err != nil {
			return err
		}
		r.length = end - r.start
	}
	return c.bare(&r)
}

// Delete removes ref on addr.
func (c *Client) Delete(addr, ref string) error {
	return c.bare(&request{method: "DELETE", addr: addr, ref: ref, contentFrom: -1})
}

// bare runs an exchange whose only good answer is 204 No Content.
func (c *Client) bare(r *request) error {
	pc, err := c.do(r)
	if err != nil {
		return err
	}
	if pc.h.status != 204 {
		return pc.refuse(r)
	}
	c.release(r.addr, pc)
	return nil
}
