package httpx

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bitdew/internal/repository"
)

// countingListener counts the connections a server accepts: what a client's
// dials cost the other side.
type countingListener struct {
	net.Listener
	accepts atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return conn, err
}

func newCountingServer(t *testing.T) (*Server, *repository.MemBackend, *countingListener) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	counting := &countingListener{Listener: lis}
	backend := repository.NewMemBackend()
	srv := serve(backend, counting)
	t.Cleanup(func() { srv.Close() })
	return srv, backend, counting
}

// dropConns closes, on the server's side, every connection it holds: what
// its idle timeout does to a client's kept connections.
func dropConns(s *Server) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for conn := range s.conns {
		conn.Close()
	}
}

func TestConnectionReuse(t *testing.T) {
	content := randBytes(3000, 11)

	t.Run("sequential", func(t *testing.T) {
		srv, backend, lis := newCountingServer(t)
		backend.Put("f", content)
		c := NewClient()
		var buf bytes.Buffer
		for i := 0; i < 100; i++ {
			buf.Reset()
			if _, err := c.Get(srv.Addr(), "f", 0, &buf); err != nil || !bytes.Equal(buf.Bytes(), content) {
				t.Fatalf("Get %d: %d bytes, %v", i, buf.Len(), err)
			}
		}
		if got := lis.accepts.Load(); got != 1 {
			t.Errorf("100 sequential Gets cost %d connections, want 1", got)
		}
	})

	// The pool holds what the callers' concurrency produced: a second burst
	// of the same width dials nothing.
	t.Run("burst", func(t *testing.T) {
		srv, backend, lis := newCountingServer(t)
		c := NewClient()
		const width = 16
		burst := func(op func(i int) error) {
			var wg sync.WaitGroup
			for i := 0; i < width; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					if err := op(i); err != nil {
						t.Error(err)
					}
				}(i)
			}
			wg.Wait()
		}
		burst(func(i int) error {
			return c.Put(srv.Addr(), fmt.Sprint("f", i), bytes.NewReader(content))
		})
		burst(func(i int) error {
			var buf bytes.Buffer
			_, err := c.Get(srv.Addr(), fmt.Sprint("f", i), 0, &buf)
			if err == nil && !bytes.Equal(buf.Bytes(), content) {
				err = fmt.Errorf("f%d: content mismatch", i)
			}
			return err
		})
		if refs, _ := backend.Refs(); len(refs) != width {
			t.Errorf("%d refs stored, want %d", len(refs), width)
		}
		if got := lis.accepts.Load(); got > width {
			t.Errorf("a burst of %d Puts and one of %d Gets cost %d connections, want at most %d", width, width, got, width)
		}
	})

	t.Run("dead", func(t *testing.T) {
		srv, backend, lis := newCountingServer(t)
		backend.Put("f", content)
		c := NewClient()
		get := func() {
			t.Helper()
			var buf bytes.Buffer
			if _, err := c.Get(srv.Addr(), "f", 0, &buf); err != nil || !bytes.Equal(buf.Bytes(), content) {
				t.Fatalf("Get: %d bytes, %v", buf.Len(), err)
			}
		}
		get()
		dropConns(srv)
		get() // replayed
		if got := lis.accepts.Load(); got != 2 {
			t.Errorf("a Get over a dead kept connection cost %d connections in all, want 2", got)
		}
		// A body that can rewind is sent again, whole.
		dropConns(srv)
		if err := c.Put(srv.Addr(), "up", bytes.NewReader(content)); err != nil {
			t.Fatalf("Put over a dead kept connection: %v", err)
		}
		if got, _ := backend.Get("up"); !bytes.Equal(got, content) {
			t.Errorf("replayed Put stored %d bytes, want the content", len(got))
		}
		// One that cannot is not: part of it is gone with the first attempt.
		dropConns(srv)
		if err := c.Put(srv.Addr(), "once", io.MultiReader(bytes.NewReader(content))); err == nil {
			t.Error("a Put that cannot rewind succeeded over a dead kept connection")
		}
		if _, err := backend.Get("once"); err == nil {
			t.Error("a Put that failed stored content")
		}
		if got := lis.accepts.Load(); got != 3 {
			t.Errorf("%d connections in all, want 3: one per replay, none for the Put that cannot", got)
		}
	})

	// Nothing runs behind the pool: a later request, to any address, closes
	// what has been idle too long, so that a worker that left pins nothing.
	t.Run("aged", func(t *testing.T) {
		gone, backend, lis := newCountingServer(t)
		backend.Put("f", content)
		other, _, _ := newCountingServer(t)
		c := NewClient()
		if _, err := c.Get(gone.Addr(), "f", 0, io.Discard); err != nil {
			t.Fatal(err)
		}
		c.mu.Lock()
		kept := c.idle[gone.Addr()][0]
		kept.since = kept.since.Add(-2 * clientIdle)
		c.swept = c.swept.Add(-2 * clientIdle)
		c.mu.Unlock()
		if _, err := c.Size(other.Addr(), "missing"); err == nil {
			t.Error("Size of a missing ref succeeded")
		}
		c.mu.Lock()
		_, listed := c.idle[gone.Addr()]
		c.mu.Unlock()
		if listed || kept.SetDeadline(time.Time{}) == nil {
			t.Errorf("an aged connection survived a later request: listed %v", listed)
		}
		if _, err := c.Get(gone.Addr(), "f", 0, io.Discard); err != nil {
			t.Fatal(err)
		}
		if got := lis.accepts.Load(); got != 2 {
			t.Errorf("%d connections in all, want 2: the aged one is not reused", got)
		}
	})
}

// TestFileContent runs the content path's other branch: a DirBackend's
// readers are files, which leave by sendfile held to the size they had when
// opened, on the server for a download and on the client for an upload.
func TestFileContent(t *testing.T) {
	stored, err := repository.NewDirBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(stored, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	local, err := repository.NewDirBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	content := randBytes(200_000, 13)
	local.Put("f", content)
	c := NewClient()

	src, size, err := repository.OpenReader(local, "f")
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if err := c.Put(srv.Addr(), "f", io.NewSectionReader(src, 0, 50_000)); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Seek(50_000, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if err := c.Append(srv.Addr(), "f", 50_000, src); err != nil {
		t.Fatal(err)
	}
	if got, err := stored.Get("f"); err != nil || size != int64(len(content)) || !bytes.Equal(got, content) {
		t.Fatalf("uploaded in two parts: %d bytes stored, %v", len(got), err)
	}

	var buf bytes.Buffer
	if n, err := c.Get(srv.Addr(), "f", 120_000, &buf); err != nil || n != 80_000 || !bytes.Equal(buf.Bytes(), content[120_000:]) {
		t.Fatalf("resumed Get off a file: %d bytes, %v", n, err)
	}
	buf.Reset()
	if n, err := c.Get(srv.Addr(), "f", 0, &buf); err != nil || n != int64(len(content)) || !bytes.Equal(buf.Bytes(), content) {
		t.Fatalf("Get off a file: %d bytes, %v", n, err)
	}
}

// TestHTTPExchangeAllocs pins what one warm exchange allocates, client and
// server together, to what the backend is handed: the ref and the reader it
// opens for a Get; the ref, the writer it opens and the reservation that
// becomes the stored slice for a Put. Neither end allocates for the exchange
// itself (through net/http: 89 and 82). CI runs this test by name, without -race.
func TestHTTPExchangeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	srv, backend := newServer(t)
	content := randBytes(256, 12)
	backend.Put("f", content)
	c, addr := NewClient(), srv.Addr()
	var sink bytes.Buffer
	sink.Grow(len(content))
	body := bytes.NewReader(content)

	get := testing.AllocsPerRun(200, func() {
		sink.Reset()
		if _, err := c.Get(addr, "f", 0, &sink); err != nil {
			t.Fatal(err)
		}
	})
	if get > 2 {
		t.Errorf("a warm 256 B Get allocates %.0f times, want at most 2", get)
	}
	put := testing.AllocsPerRun(200, func() {
		body.Reset(content)
		if err := c.Put(addr, "up", body); err != nil {
			t.Fatal(err)
		}
	})
	if put > 3 {
		t.Errorf("a warm 256 B Put allocates %.0f times, want at most 3", put)
	}
	t.Logf("allocations per exchange: Get %.0f, Put %.0f", get, put)
}
