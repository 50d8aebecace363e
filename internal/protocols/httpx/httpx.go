// Package httpx is BitDew's HTTP transfer back-end: repository content
// served over plain HTTP with Range support for resume, plus PUT uploads.
// The paper recommends HTTP/FTP for small, unique files (e.g. the BLAST
// query sequences of §5) where collaborative protocols pay more overhead
// than they recover.
//
// Both ends speak the HTTP/1.1 subset BitDew uses directly on the
// connection: a head of at most 8 KiB parsed in place, a body framed by
// Content-Length, by chunks, or (a response only) by the close, and
// keep-alive. Everything else — other versions, other transfer codings,
// folded header lines, redirects — is refused, never guessed at.
package httpx

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

const (
	// maxHead bounds a request or response head; readBuf is the reader it
	// is parsed in, which also bounds one line of it.
	maxHead = 8 << 10
	readBuf = 4 << 10

	// exchangeTimeout is what one request and its response are given at
	// least, on both ends, and twice that at most (see deadline).
	exchangeTimeout = 5 * time.Minute
	// serverIdle is how long the server keeps a connection with no request
	// on it at least; at most it is two exchangeTimeouts, so a vanished
	// worker pins nothing for long. clientIdle is the age past which the
	// client drops an idle connection instead of reusing it: shorter, so
	// that it does not pick one the server is about to close.
	serverIdle = 90 * time.Second
	clientIdle = 60 * time.Second
)

// deadline is the I/O deadline set on a connection. It is kept far enough
// ahead rather than moved for every exchange: moving one costs a runtime
// timer and, in a process with nothing else to do, a thread wake-up
// (runtime.wakeNetPoller) — three of them per exchange made a lone small
// download two to three times slower than its own work.
type deadline struct{ at time.Time }

// keep makes sure conn's deadline is at least d away. When it is not, it is
// set 2d away, so that it moves once per d of traffic.
func (dl *deadline) keep(conn net.Conn, d time.Duration) {
	if now := time.Now(); dl.at.Sub(now) < d {
		dl.at = now.Add(2 * d)
		conn.SetDeadline(dl.at)
	}
}

var (
	errMalformed = errors.New("httpx: malformed head")
	errTooLarge  = errors.New("httpx: head larger than 8 KiB")
)

// head is what a request or response head says, as far as BitDew reads it.
type head struct {
	method string // request
	target string // request: "/data/<ref>"
	status int    // response

	// length is the body's: Content-Length; 0 for a request that names
	// none; -1 when the body is chunked or, a response's, ends with the
	// connection.
	length  int64
	chunked bool
	close   bool // no exchange follows this one on the connection
	expect  bool // Expect: 100-continue

	// Range: bytes=from-to, with -1 for an absent side ("from-" runs to the
	// end, "-to" is the last to bytes). Any other form leaves both at -1
	// and resolves to nothing.
	ranged   bool
	from, to int64
	// contentFrom is the first byte position of Content-Range, -1 without.
	contentFrom int64
}

// readHead reads one head off br into h. It consumes at most maxHead bytes;
// the error is errTooLarge or errMalformed for what the peer sent, and the
// connection's own otherwise.
func readHead(br *bufio.Reader, h *head, request bool) error {
	*h = head{length: -1, from: -1, to: -1, contentFrom: -1}
	size := 0
	line, err := readLine(br, &size)
	if err != nil {
		return err
	}
	var proto []byte
	if request {
		method, rest, ok := cut(line, ' ')
		target, version, ok2 := cut(rest, ' ')
		if !ok || !ok2 || len(method) == 0 || len(target) == 0 || target[0] != '/' {
			return errMalformed
		}
		switch string(method) { // the four served methods cost no string
		case "GET":
			h.method = "GET"
		case "HEAD":
			h.method = "HEAD"
		case "PUT":
			h.method = "PUT"
		case "DELETE":
			h.method = "DELETE"
		default:
			h.method = string(method)
		}
		h.target, proto = string(target), version
	} else {
		version, rest, _ := cut(line, ' ')
		code, _, _ := cut(rest, ' ')
		status, ok := parseInt(code)
		if !ok || len(code) != 3 {
			return errMalformed
		}
		h.status, proto = int(status), version
	}
	http11 := string(proto) == "HTTP/1.1"
	if !http11 && string(proto) != "HTTP/1.0" {
		return errMalformed
	}

	for {
		if line, err = readLine(br, &size); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		if len(line) == 0 {
			break
		}
		name, value, ok := cut(line, ':')
		if !ok || !isToken(name) {
			return errMalformed // no colon, an empty or spaced name, a folded line
		}
		// The line is the reader's own buffer: names, and the values that
		// are keywords, are folded where they lie.
		value = bytes.Trim(value, " \t")
		switch string(lower(name)) {
		case "content-length":
			n, ok := parseInt(value)
			if !ok || (h.length >= 0 && n != h.length) {
				return errMalformed
			}
			h.length = n
		case "transfer-encoding":
			if h.chunked || !http11 || string(lower(value)) != "chunked" {
				return errMalformed
			}
			h.chunked = true
		case "connection":
			for rest := lower(value); len(rest) > 0; {
				var token []byte
				token, rest, _ = cut(rest, ',')
				if string(bytes.Trim(token, " \t")) == "close" {
					h.close = true
				}
			}
		case "expect":
			h.expect = string(lower(value)) == "100-continue"
		case "range":
			h.ranged = true
			h.from, h.to = parseRange(value)
		case "content-range":
			if h.contentFrom, ok = parseContentRange(value); !ok && request {
				return errMalformed
			}
		}
	}

	switch {
	case !request && (h.status/100 == 1 || h.status == 204 || h.status == 304):
		h.length, h.chunked = 0, false
	case h.chunked:
		h.length = -1
	case h.length < 0 && request:
		h.length = 0
	case h.length < 0:
		h.close = true
	}
	if !http11 {
		h.close = true
	}
	return nil
}

// readLine returns br's next line without its terminator. The slice is the
// reader's own and lasts until the next read. size counts the head so far.
func readLine(br *bufio.Reader, size *int) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if *size += len(line); err == bufio.ErrBufferFull || *size > maxHead {
		return nil, errTooLarge
	}
	if err != nil {
		if err == io.EOF && len(line) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// skipTrailer reads what follows a chunked body's last chunk, up to and
// including the blank line; httputil's reader stops before it.
func skipTrailer(br *bufio.Reader) error {
	for size := 0; ; {
		line, err := readLine(br, &size)
		if err != nil || len(line) == 0 {
			return err
		}
	}
}

// resolve returns the start and length of the range h asks of content of
// the given size, and whether there is such a range.
func (h *head) resolve(size int64) (start, n int64, ok bool) {
	switch {
	case h.from >= 0 && h.to >= 0:
		start, n = h.from, min(h.to, size-1)+1-h.from
	case h.from >= 0:
		start, n = h.from, size-h.from
	case h.to >= 0:
		n = min(h.to, size)
		start = size - n
	}
	return start, n, n > 0
}

// parseRange reads "bytes=from-to" with either side optional, not both.
func parseRange(v []byte) (from, to int64) {
	spec, unit := bytes.CutPrefix(v, []byte("bytes="))
	first, last, dash := cut(spec, '-')
	from, okFrom := parseInt(first)
	to, okTo := parseInt(last)
	switch {
	case !unit || !dash:
	case okFrom && okTo && from <= to:
		return from, to
	case okFrom && len(last) == 0:
		return from, -1
	case okTo && len(first) == 0:
		return -1, to
	}
	return -1, -1
}

// parseContentRange reads the first byte position of "bytes from-…", the
// one part of it either end acts on.
func parseContentRange(v []byte) (from int64, ok bool) {
	spec, unit := bytes.CutPrefix(v, []byte("bytes "))
	first, _, dash := cut(spec, '-')
	if from, ok = parseInt(first); !ok || !unit || !dash {
		return -1, false
	}
	return from, true
}

// parseInt reads a run of decimal digits that fits an int64, nothing else:
// no sign, no space.
func parseInt(b []byte) (int64, bool) {
	n, err := strconv.ParseUint(string(b), 10, 63)
	return int64(n), err == nil
}

// cut is bytes.Cut for one separator byte.
func cut(b []byte, sep byte) (before, after []byte, found bool) {
	if i := bytes.IndexByte(b, sep); i >= 0 {
		return b[:i], b[i+1:], true
	}
	return b, nil, false
}

// lower folds b to lower case where it lies.
func lower(b []byte) []byte {
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return b
}

// isToken reports whether b can be a header field name: not empty, and
// nothing in it — a space before the colon — that could hide another name.
func isToken(b []byte) bool {
	for _, c := range b {
		if c <= ' ' || c >= 0x7f {
			return false
		}
	}
	return len(b) > 0
}

func appendField(b []byte, name string, v int64) []byte {
	b = append(append(b, name...), ": "...)
	return append(strconv.AppendInt(b, v, 10), "\r\n"...)
}

// send writes the n bytes content holds, from where it stands, to conn.
// A snapshot that ends where the n bytes do is copied bare: a stored slice
// leaves in one write (bytes.Reader.WriteTo), a pack extent by sendfile
// (its reader's WriteTo). A closed range stops short of the end, and is
// held to n through limit.
func send(conn net.Conn, limit *io.LimitedReader, content io.Reader, n int64, toEnd bool) error {
	src := content
	if !toEnd {
		*limit = io.LimitedReader{R: content, N: n}
		src = limit
	}
	sent, err := io.Copy(conn, src)
	if err == nil && sent != n {
		err = fmt.Errorf("httpx: sent %d bytes of the %d announced", sent, n)
	}
	return err
}
