package httpx

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// net/http is the reference peer: httpx_test.go drives the server with its
// client, and these tests drive the client against its server.

func url(addr, ref string) string { return "http://" + addr + "/data/" + ref }

// peer starts a net/http server and returns its address.
func peer(t *testing.T, h http.HandlerFunc) string {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts.Listener.Addr().String()
}

// TestRangedGetNeedsPartialContent: a server may ignore Range (RFC 9110
// §14.2) and answer 200 with the whole content; a resume must refuse that
// before a byte of it lands behind the prefix.
func TestRangedGetNeedsPartialContent(t *testing.T) {
	content := randBytes(5000, 21)
	ignoresRange := peer(t, func(w http.ResponseWriter, r *http.Request) { w.Write(content) })
	var buf bytes.Buffer
	n, err := NewClient().Get(ignoresRange, "f", 2000, &buf)
	if err == nil || !strings.Contains(err.Error(), "200") {
		t.Errorf("resume against a server that ignores Range: %d bytes, error %v; want an error naming status 200", n, err)
	}
	if n != 0 || buf.Len() != 0 {
		t.Errorf("%d bytes written (%d returned) before the refusal, want none", buf.Len(), n)
	}

	// A 206 for some other range is no better.
	wrongRange := peer(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Range", fmt.Sprintf("bytes 0-%d/%d", len(content)-1, len(content)))
		w.WriteHeader(http.StatusPartialContent)
		w.Write(content)
	})
	if n, err := NewClient().Get(wrongRange, "f", 2000, &buf); err == nil || n != 0 || buf.Len() != 0 {
		t.Errorf("resume answered with another range: %d bytes, %v; want an error and none", n, err)
	}
}

func TestClientAgainstNetHTTP(t *testing.T) {
	content := randBytes(70_000, 22)
	get := func(t *testing.T, c *Client, addr string, offset int64) {
		t.Helper()
		var buf bytes.Buffer
		n, err := c.Get(addr, "f", offset, &buf)
		if err != nil || n != int64(len(content))-offset || !bytes.Equal(buf.Bytes(), content[offset:]) {
			t.Fatalf("Get from %d: %d bytes, %v", offset, n, err)
		}
	}

	t.Run("ServeContent over a file", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "f")
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		addr := peer(t, func(w http.ResponseWriter, r *http.Request) {
			f, err := os.Open(path)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			defer f.Close()
			http.ServeContent(w, r, "", time.Time{}, f)
		})
		c := NewClient()
		if size, err := c.Size(addr, "f"); err != nil || size != int64(len(content)) {
			t.Fatalf("Size = %d, %v", size, err)
		}
		get(t, c, addr, 0)
		get(t, c, addr, 30_000)
		if _, err := c.Get(addr, "f", int64(len(content)), io.Discard); err == nil || !strings.Contains(err.Error(), "416") {
			t.Errorf("Get past the end: %v, want an error naming status 416", err)
		}
	})

	t.Run("chunked", func(t *testing.T) {
		addr := peer(t, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Trailer", "X-Sum")
			for off := 0; off < len(content); off += 10_000 {
				w.Write(content[off : off+10_000])
				w.(http.Flusher).Flush()
			}
			w.Header().Set("X-Sum", "unread")
		})
		c := NewClient()
		get(t, c, addr, 0)
		get(t, c, addr, 0) // on the same connection, past the first one's trailer
	})

	raw := func(response string) string {
		return peer(t, func(w http.ResponseWriter, r *http.Request) {
			conn, bw, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			bw.WriteString(response)
			bw.Write(content)
			bw.Flush()
		})
	}
	t.Run("HTTP/1.0 to the close", func(t *testing.T) {
		addr := raw("HTTP/1.0 200 OK\r\nConnection: close\r\n\r\n")
		c := NewClient()
		get(t, c, addr, 0)
		get(t, c, addr, 0)
	})
	t.Run("100 Continue first", func(t *testing.T) {
		addr := raw(fmt.Sprintf("HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\ncontent-length: %d\r\n\r\n", len(content)))
		get(t, NewClient(), addr, 0)
	})

	t.Run("redirect", func(t *testing.T) {
		addr := peer(t, func(w http.ResponseWriter, r *http.Request) {
			http.Redirect(w, r, "/elsewhere", http.StatusFound)
		})
		c := NewClient()
		var buf bytes.Buffer
		if n, err := c.Get(addr, "f", 0, &buf); err == nil || !strings.Contains(err.Error(), "302") || n != 0 || buf.Len() != 0 {
			t.Errorf("Get of a redirect: %d bytes, %v; want none and an error naming status 302", buf.Len(), err)
		}
		// The refused response's body was not taken for the next response.
		if _, err := c.Size(addr, "f"); err == nil || !strings.Contains(err.Error(), "302") {
			t.Errorf("Size of a redirect: %v, want an error naming status 302", err)
		}
		if err := c.Put(addr, "f", bytes.NewReader(content)); err == nil {
			t.Error("Put to a redirect succeeded")
		}
	})

	t.Run("uploads", func(t *testing.T) {
		var got []byte
		var contentRange string
		addr := peer(t, func(w http.ResponseWriter, r *http.Request) {
			got, _ = io.ReadAll(r.Body)
			contentRange = r.Header.Get("Content-Range")
			w.WriteHeader(http.StatusNoContent)
		})
		c := NewClient()
		if err := c.Put(addr, "f", bytes.NewReader(content)); err != nil || !bytes.Equal(got, content) {
			t.Fatalf("Put: %v, %d bytes arrived", err, len(got))
		}
		if err := c.Put(addr, "f", io.MultiReader(bytes.NewReader(content))); err != nil || !bytes.Equal(got, content) {
			t.Fatalf("chunked Put: %v, %d bytes arrived", err, len(got))
		}
		if err := c.Append(addr, "f", 7, bytes.NewReader(content[7:])); err != nil || !bytes.Equal(got, content[7:]) || contentRange != "bytes 7-*/*" {
			t.Fatalf("Append: %v, %d bytes arrived, Content-Range %q", err, len(got), contentRange)
		}
		if err := c.Delete(addr, "f"); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("a ref that would break the request line", func(t *testing.T) {
		if err := NewClient().Delete("127.0.0.1:1", "f HTTP/1.1\r\nX: y"); err == nil || !strings.Contains(err.Error(), "request line") {
			t.Errorf("Delete: %v, want the ref refused before a dial", err)
		}
	})
}

// exchangeRaw writes request on conn and reads one response with net/http's
// reader, body included.
func exchangeRaw(t *testing.T, conn net.Conn, br *bufio.Reader, method, request string) (*http.Response, []byte) {
	t.Helper()
	if _, err := io.WriteString(conn, request); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(br, &http.Request{Method: method})
	if err != nil {
		t.Fatalf("%q: %v", request, err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%q: body: %v", request, err)
	}
	return resp, body
}

// TestServerAgainstRawRequests sends the server what curl and its kin put
// on the wire, byte for byte.
func TestServerAgainstRawRequests(t *testing.T) {
	srv, backend := newServer(t)
	content := randBytes(100, 23)
	backend.Put("f", content)
	open := func(t *testing.T) (net.Conn, *bufio.Reader) {
		t.Helper()
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		return conn, bufio.NewReader(conn)
	}
	closed := func(t *testing.T, br *bufio.Reader) {
		t.Helper()
		if _, err := br.ReadByte(); err != io.EOF {
			t.Errorf("the server kept the connection open: read error %v, want EOF", err)
		}
	}

	t.Run("keep-alive, lower-case names, suffix range", func(t *testing.T) {
		conn, br := open(t)
		resp, body := exchangeRaw(t, conn, br, "GET", "GET /data/f HTTP/1.1\r\nhost: x\r\nuser-agent: curl/8.5.0\r\naccept: */*\r\nrange: bytes=-10\r\n\r\n")
		if resp.StatusCode != 206 || !bytes.Equal(body, content[90:]) || resp.Header.Get("Content-Range") != "bytes 90-99/100" {
			t.Errorf("bytes=-10: status %d, %d bytes, Content-Range %q", resp.StatusCode, len(body), resp.Header.Get("Content-Range"))
		}
		resp, body = exchangeRaw(t, conn, br, "HEAD", "HEAD /data/f HTTP/1.1\r\nHost: x\r\n\r\n")
		if resp.StatusCode != 200 || resp.ContentLength != 100 || len(body) != 0 {
			t.Errorf("HEAD: status %d, Content-Length %d, %d bytes", resp.StatusCode, resp.ContentLength, len(body))
		}
		resp, _ = exchangeRaw(t, conn, br, "HEAD", "HEAD /data/missing HTTP/1.1\r\nHost: x\r\n\r\n")
		if resp.StatusCode != 404 {
			t.Errorf("HEAD of a missing ref: status %d", resp.StatusCode)
		}
		resp, body = exchangeRaw(t, conn, br, "GET", "GET /data/f HTTP/1.1\r\nHost: x\r\nRange: bytes=-500\r\n\r\n")
		if resp.StatusCode != 206 || !bytes.Equal(body, content) {
			t.Errorf("bytes=-500 of 100: status %d, %d bytes, want 206 and all of it", resp.StatusCode, len(body))
		}
		resp, body = exchangeRaw(t, conn, br, "GET", "GET /data/f HTTP/1.1\r\nHost: x\r\nRange: bytes=95-9223372036854775807\r\n\r\n")
		if resp.StatusCode != 206 || !bytes.Equal(body, content[95:]) {
			t.Errorf("a range to the largest offset there is: status %d, %d bytes, want 206 and the last 5", resp.StatusCode, len(body))
		}
		for _, unsatisfiable := range []string{"bytes=-0", "bytes=-", "bytes=0-1,5-6", "bytes=a-"} {
			resp, _ = exchangeRaw(t, conn, br, "GET", "GET /data/f HTTP/1.1\r\nHost: x\r\nRange: "+unsatisfiable+"\r\n\r\n")
			if resp.StatusCode != 416 || resp.Header.Get("Content-Range") != "bytes */100" {
				t.Errorf("Range %q: status %d, Content-Range %q, want 416 and bytes */100", unsatisfiable, resp.StatusCode, resp.Header.Get("Content-Range"))
			}
		}
		resp, _ = exchangeRaw(t, conn, br, "POST", "POST /data/f HTTP/1.1\r\nHost: x\r\n\r\n")
		if resp.StatusCode != 405 {
			t.Errorf("POST: status %d, want 405", resp.StatusCode)
		}
		resp, _ = exchangeRaw(t, conn, br, "GET", "GET /elsewhere HTTP/1.1\r\nHost: x\r\n\r\n")
		if resp.StatusCode != 404 {
			t.Errorf("GET outside /data/: status %d, want 404", resp.StatusCode)
		}
		resp, _ = exchangeRaw(t, conn, br, "GET", "GET /data/ HTTP/1.1\r\nHost: x\r\n\r\n")
		if resp.StatusCode != 400 {
			t.Errorf("GET of no ref: status %d, want 400", resp.StatusCode)
		}
	})

	t.Run("Connection: close", func(t *testing.T) {
		conn, br := open(t)
		resp, body := exchangeRaw(t, conn, br, "GET", "GET /data/f HTTP/1.1\r\nHost: x\r\nConnection: Keep-Alive, Close\r\n\r\n")
		if resp.StatusCode != 200 || !bytes.Equal(body, content) || !resp.Close {
			t.Errorf("status %d, %d bytes, close %v; want 200, the content and Connection: close", resp.StatusCode, len(body), resp.Close)
		}
		closed(t, br)
	})

	t.Run("HTTP/1.0", func(t *testing.T) {
		conn, br := open(t)
		resp, body := exchangeRaw(t, conn, br, "GET", "GET /data/f HTTP/1.0\r\n\r\n")
		if resp.StatusCode != 200 || !bytes.Equal(body, content) {
			t.Errorf("status %d, %d bytes", resp.StatusCode, len(body))
		}
		closed(t, br)
	})

	t.Run("Expect: 100-continue", func(t *testing.T) {
		conn, br := open(t)
		head := "PUT /data/up HTTP/1.1\r\nHost: x\r\nUser-Agent: curl/8.5.0\r\nAccept: */*\r\nContent-Length: 100\r\nExpect: 100-continue\r\n\r\n"
		resp, _ := exchangeRaw(t, conn, br, "PUT", head)
		if resp.StatusCode != 100 {
			t.Fatalf("status %d before the body, want 100", resp.StatusCode)
		}
		resp, _ = exchangeRaw(t, conn, br, "PUT", string(content))
		if got, _ := backend.Get("up"); resp.StatusCode != 204 || !bytes.Equal(got, content) {
			t.Errorf("status %d, %d bytes stored", resp.StatusCode, len(got))
		}
		// A refused upload is told so in place of the go-ahead, and the
		// connection, which may or may not carry the body next, ends.
		resp, _ = exchangeRaw(t, conn, br, "PUT", strings.Replace(head, "Expect:", "Content-Range: bytes 7-*/*\r\nExpect:", 1))
		if resp.StatusCode != 409 || !resp.Close {
			t.Errorf("resume at a wrong offset: status %d, close %v; want 409 and Connection: close", resp.StatusCode, resp.Close)
		}
		closed(t, br)
		backend.Delete("up")
	})

	t.Run("a refusal reaches a peer that is still sending", func(t *testing.T) {
		conn, br := open(t)
		body := randBytes(1<<20, 24)
		sent := make(chan error, 1)
		go func() {
			_, err := io.WriteString(conn, fmt.Sprintf("PUT /data/f HTTP/1.1\r\nHost: x\r\nContent-Range: bytes 7-*/*\r\nContent-Length: %d\r\n\r\n", len(body)))
			if err == nil {
				_, err = conn.Write(body)
			}
			sent <- err
		}()
		resp, err := http.ReadResponse(br, &http.Request{Method: "PUT"})
		if err != nil || resp.StatusCode != 409 {
			t.Fatalf("response %v, %v; want 409", resp, err)
		}
		if err := <-sent; err != nil {
			t.Errorf("sending the body: %v", err)
		}
		if got, _ := backend.Get("f"); !bytes.Equal(got, content) {
			t.Error("a refused upload changed the content")
		}
	})

	t.Run("refused heads", func(t *testing.T) {
		pad := strings.Repeat("a", 1000)
		for request, want := range map[string]int{
			"GET /data/f HTTP/1.1\r\nHost: x\r\nX-Pad: " + strings.Repeat(pad, 5) + "\r\n\r\n": 431, // one line over the reader
			"GET /data/f HTTP/1.1\r\n" + strings.Repeat("X-Pad: "+pad+"\r\n", 9) + "\r\n":      431, // nine that fit it, over 8 KiB
			"GET /data/f HTTP/1.1\r\nHost: x\r\n folded\r\n\r\n":                               400,
			"GET /data/f HTTP/1.1\r\nHost x\r\n\r\n":                                           400,
			"GET /data/f HTTP/2.0\r\nHost: x\r\n\r\n":                                          400,
			"GET /data/f\r\n\r\n":                             400,
			"GET http://x/data/f HTTP/1.1\r\nHost: x\r\n\r\n": 400,
			"PUT /data/up HTTP/1.1\r\nHost: x\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\nabcd":              400,
			"PUT /data/up HTTP/1.1\r\nHost: x\r\nContent-Length: -3\r\n\r\n":                                      400,
			"PUT /data/up HTTP/1.1\r\nHost: x\r\nContent-Length: 99999999999999999999\r\n\r\n":                    400,
			"PUT /data/up HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: gzip, chunked\r\n\r\n":                        400,
			"PUT /data/up HTTP/1.1\r\nHost: x\r\nContent-Range: bytes x-*/*\r\nContent-Length: 1\r\n\r\na":        400,
			"PUT /data/up HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nabcde\r\nzz\r\n":          400,
			"DELETE /data/missing HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody":                           204, // answered, and closed over the body nobody read
			"GET /data/f HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\nGET /data/f HTTP/1.1\r\nHost: x\r\n\r\n": 200,
		} {
			conn, br := open(t)
			resp, _ := exchangeRaw(t, conn, br, "GET", request)
			if resp.StatusCode != want {
				t.Errorf("%.60q: status %d, want %d", request, resp.StatusCode, want)
			}
			closed(t, br)
		}
		if _, err := backend.Get("up"); err == nil {
			t.Error("a refused upload stored content")
		}
	})

	t.Run("chunked upload with a trailer", func(t *testing.T) {
		conn, br := open(t)
		resp, _ := exchangeRaw(t, conn, br, "PUT", "PUT /data/up HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nabcde\r\n0\r\nX-Trailer: t\r\n\r\n")
		if got, _ := backend.Get("up"); resp.StatusCode != 204 || string(got) != "abcde" {
			t.Errorf("status %d, stored %q", resp.StatusCode, got)
		}
		// The next request starts after the trailer.
		if resp, body := exchangeRaw(t, conn, br, "GET", "GET /data/up HTTP/1.1\r\nHost: x\r\n\r\n"); resp.StatusCode != 200 || string(body) != "abcde" {
			t.Errorf("after the trailer: status %d, %q", resp.StatusCode, body)
		}
	})
}
