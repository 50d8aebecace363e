package httpx

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"
)

// countingReader counts what the parser pulls off the connection.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// FuzzReadHead holds the head parser, the network-facing surface, to three
// promises on any input: it consumes no more than maxHead bytes of a head it
// accepts and pulls no more than one reader's worth past that before giving
// up; the length it reports is a byte count or -1; and a head that net/http
// accepts too means the same thing to both. The seeds are heads captured
// from net/http, curl and this package's client and server, and the refusals
// the tests pin; they run under plain go test.
func FuzzReadHead(f *testing.F) {
	for _, request := range []string{
		// net/http's client
		"GET /data/f HTTP/1.1\r\nHost: 127.0.0.1:4567\r\nUser-Agent: Go-http-client/1.1\r\nRange: bytes=10-19\r\nAccept-Encoding: gzip\r\n\r\n",
		"PUT /data/up HTTP/1.1\r\nHost: 127.0.0.1:4567\r\nUser-Agent: Go-http-client/1.1\r\nTransfer-Encoding: chunked\r\nAccept-Encoding: gzip\r\n\r\n5\r\nabcde\r\n0\r\n\r\n",
		"PUT /data/up HTTP/1.1\r\nHost: 127.0.0.1:4567\r\nUser-Agent: Go-http-client/1.1\r\nContent-Length: 5\r\nContent-Range: bytes 20000-*/*\r\nAccept-Encoding: gzip\r\n\r\nabcde",
		"HEAD /data/f HTTP/1.1\r\nHost: 127.0.0.1:4567\r\nUser-Agent: Go-http-client/1.1\r\n\r\n",
		// curl
		"GET /data/f HTTP/1.1\r\nHost: localhost:4567\r\nUser-Agent: curl/8.5.0\r\nAccept: */*\r\nRange: bytes=-10\r\n\r\n",
		"PUT /data/up HTTP/1.1\r\nHost: localhost:4567\r\nUser-Agent: curl/8.5.0\r\nAccept: */*\r\nContent-Length: 1048576\r\nExpect: 100-continue\r\n\r\n",
		"DELETE /data/up HTTP/1.1\r\nhost: localhost:4567\r\nuser-agent: curl/8.5.0\r\naccept: */*\r\nconnection: close\r\n\r\n",
		"GET /data/f HTTP/1.0\r\nHost: localhost:4567\r\nUser-Agent: curl/8.5.0\r\nAccept: */*\r\n\r\n",
		// this package's client
		"GET /data/f HTTP/1.1\r\nHost: 127.0.0.1:4567\r\nRange: bytes=30000-\r\n\r\n",
		"PUT /data/up HTTP/1.1\r\nHost: 127.0.0.1:4567\r\nContent-Range: bytes 20000-*/*\r\nContent-Length: 44000\r\n\r\n",
		"PUT /data/up HTTP/1.1\r\nHost: 127.0.0.1:4567\r\nTransfer-Encoding: chunked\r\n\r\n",
		// refused, or nearly
		"GET /data/f HTTP/1.1\r\nHost: x\r\n folded\r\n\r\n",
		"GET /data/f HTTP/1.1\r\nHost x\r\n\r\n",
		"GET /data/f HTTP/2.0\r\n\r\n",
		"PUT /data/up HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\n",
		"PUT /data/up HTTP/1.1\r\nContent-Length: 3\r\ncontent-length: 3 \r\n\r\n",
		"PUT /data/up HTTP/1.1\r\nContent-Length: 99999999999999999999\r\n\r\n",
		"PUT /data/up HTTP/1.1\r\nContent-Length: 9223372036854775807\r\n\r\n",
		"PUT /data/up HTTP/1.1\r\nContent-Length: +3\r\n\r\n",
		"PUT /data/up HTTP/1.1\r\nContent-Length: 3\r\nTransfer-Encoding: chunked\r\n\r\n",
		"PUT /data/up HTTP/1.1\r\nTransfer-Encoding: gzip, chunked\r\n\r\n",
		"PUT /data/up HTTP/1.0\r\nTransfer-Encoding: chunked\r\n\r\n",
		"GET /data/f HTTP/1.1\nHost: x\n\n",
		"GET /data/f HTTP/1.1\r\nX-Pad: " + strings.Repeat("a", readBuf) + "\r\n\r\n",
		"GET /data/f HTTP/1.1\r\n" + strings.Repeat("X-Pad: "+strings.Repeat("a", 1000)+"\r\n", 9) + "\r\n",
		"GET /data/f HTTP/1.1\r\nHost: x\r\n",
		"",
	} {
		f.Add([]byte(request), true)
	}
	for _, response := range []string{
		// net/http's server
		"HTTP/1.1 200 OK\r\nAccept-Ranges: bytes\r\nContent-Length: 100\r\nContent-Type: application/octet-stream\r\nDate: Sun, 27 Sep 2026 05:00:00 GMT\r\n\r\n",
		"HTTP/1.1 206 Partial Content\r\nAccept-Ranges: bytes\r\nContent-Length: 10\r\nContent-Range: bytes 90-99/100\r\nContent-Type: application/octet-stream\r\nDate: Sun, 27 Sep 2026 05:00:00 GMT\r\n\r\n",
		"HTTP/1.1 416 Requested Range Not Satisfiable\r\nContent-Range: bytes */100\r\nContent-Type: text/plain; charset=utf-8\r\nX-Content-Type-Options: nosniff\r\nDate: Sun, 27 Sep 2026 05:00:00 GMT\r\nContent-Length: 33\r\n\r\n",
		"HTTP/1.1 200 OK\r\nDate: Sun, 27 Sep 2026 05:00:00 GMT\r\nContent-Type: application/octet-stream\r\nTransfer-Encoding: chunked\r\n\r\n",
		"HTTP/1.1 204 No Content\r\nDate: Sun, 27 Sep 2026 05:00:00 GMT\r\n\r\n",
		"HTTP/1.1 302 Found\r\nContent-Type: text/html; charset=utf-8\r\nLocation: /elsewhere\r\nDate: Sun, 27 Sep 2026 05:00:00 GMT\r\nContent-Length: 33\r\n\r\n",
		"HTTP/1.1 100 Continue\r\n\r\n",
		"HTTP/1.1 400 Bad Request\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\n\r\n400 Bad Request",
		// this package's server
		"HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\nAccept-Ranges: bytes\r\nContent-Length: 256\r\n\r\n",
		"HTTP/1.1 409 Conflict\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: 30\r\nConnection: close\r\n\r\n",
		// older and odder servers
		"HTTP/1.0 200 OK\r\nConnection: close\r\n\r\n",
		"HTTP/1.0 200 OK\r\nConnection: keep-alive\r\nContent-Length: 5\r\n\r\nabcde",
		"HTTP/1.1 200\r\nContent-Length: 5\r\n\r\n",
		"HTTP/1.1 200 OK\r\n\r\n",
		"HTTP/1.1 304 Not Modified\r\nContent-Length: 5\r\n\r\n",
		"HTTP/1.1 +20 OK\r\n\r\n",
		"HTTP/1.1  200 OK\r\n\r\n",
		"HTTP/1.1 2000 OK\r\n\r\n",
		"ICY 200 OK\r\n\r\n",
	} {
		f.Add([]byte(response), false)
	}

	f.Fuzz(func(t *testing.T, data []byte, request bool) {
		src := &countingReader{r: bytes.NewReader(data)}
		br := bufio.NewReaderSize(src, readBuf)
		var h head
		err := readHead(br, &h, request)
		if src.n > maxHead+readBuf {
			t.Fatalf("pulled %d bytes off the connection, want at most %d", src.n, maxHead+readBuf)
		}
		if err != nil {
			return
		}
		if consumed := src.n - br.Buffered(); consumed > maxHead {
			t.Fatalf("accepted a head of %d bytes, want at most %d", consumed, maxHead)
		}
		if h.length < -1 || (h.chunked && h.length != -1) {
			t.Fatalf("length %d, chunked %v", h.length, h.chunked)
		}
		if start, n, ok := h.resolve(1000); ok && (start < 0 || n <= 0 || start+n > 1000) {
			t.Fatalf("Range %d-%d resolves to %d+%d of 1000", h.from, h.to, start, n)
		}
		if h.contentFrom < -1 {
			t.Fatalf("Content-Range start %d", h.contentFrom)
		}

		oracle := bufio.NewReader(bytes.NewReader(data))
		if request {
			req, err := http.ReadRequest(oracle)
			if err != nil {
				return
			}
			if h.method != req.Method || h.target != req.RequestURI || h.length != req.ContentLength {
				t.Fatalf("read %s %q with a body of %d, net/http %s %q with %d", h.method, h.target, h.length, req.Method, req.RequestURI, req.ContentLength)
			}
			if !h.close && req.Close {
				t.Fatalf("would keep a connection net/http closes")
			}
			return
		}
		resp, err := http.ReadResponse(oracle, nil)
		if err != nil {
			return
		}
		if h.status != resp.StatusCode || h.length != resp.ContentLength {
			t.Fatalf("read status %d with a body of %d, net/http %d with %d", h.status, h.length, resp.StatusCode, resp.ContentLength)
		}
		if !h.close && resp.Close {
			t.Fatalf("would keep a connection net/http closes")
		}
	})
}
