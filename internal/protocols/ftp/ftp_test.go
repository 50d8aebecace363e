package ftp

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	"bitdew/internal/repository"
)

func newPair(t *testing.T, opts ...Option) (*Server, repository.Backend) {
	t.Helper()
	backend := repository.NewMemBackend()
	srv, err := NewServer(backend, "127.0.0.1:0", opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, backend
}

func randBytes(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestSizeRetrieve(t *testing.T) {
	srv, backend := newPair(t)
	content := randBytes(200_000, 1)
	backend.Put("big", content)

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	n, err := c.Size("big")
	if err != nil || n != int64(len(content)) {
		t.Fatalf("Size = %d, %v", n, err)
	}
	var buf bytes.Buffer
	written, err := c.Retrieve("big", 0, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if written != int64(len(content)) || !bytes.Equal(buf.Bytes(), content) {
		t.Fatalf("Retrieve: %d bytes, equal=%v", written, bytes.Equal(buf.Bytes(), content))
	}
}

func TestRetrieveWithOffsetResume(t *testing.T) {
	srv, backend := newPair(t)
	content := randBytes(50_000, 2)
	backend.Put("f", content)

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Simulate an interrupted download: first 20k fetched, then resume.
	var buf bytes.Buffer
	if _, err := c.Retrieve("f", 0, &limitWriter{w: &buf, n: 20_000}); err == nil {
		// limitWriter errors mid-payload, breaking the stream; a fresh
		// connection resumes at the recorded offset.
		t.Log("first fetch completed unexpectedly (fast path), still fine")
	}
	c.Close()

	c2, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	got := buf.Bytes()
	var rest bytes.Buffer
	if _, err := c2.Retrieve("f", int64(len(got)), &rest); err != nil {
		t.Fatal(err)
	}
	whole := append(append([]byte(nil), got...), rest.Bytes()...)
	if !bytes.Equal(whole, content) {
		t.Fatalf("resumed content mismatch: %d vs %d bytes", len(whole), len(content))
	}
}

// limitWriter fails after n bytes, emulating a crashed receiver.
type limitWriter struct {
	w io.Writer
	n int
}

func (l *limitWriter) Write(p []byte) (int, error) {
	if l.n <= 0 {
		return 0, fmt.Errorf("limit reached")
	}
	if len(p) > l.n {
		p = p[:l.n]
	}
	n, err := l.w.Write(p)
	l.n -= n
	if err != nil {
		return n, err
	}
	if l.n == 0 {
		return n, fmt.Errorf("limit reached")
	}
	return n, nil
}

func TestStoreAndResume(t *testing.T) {
	srv, backend := newPair(t)
	content := randBytes(80_000, 3)

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Upload the first half, then resume with the second half.
	half := int64(len(content) / 2)
	if err := c.Store("up", 0, half, bytes.NewReader(content[:half])); err != nil {
		t.Fatal(err)
	}
	if err := c.Store("up", half, int64(len(content))-half, bytes.NewReader(content[half:])); err != nil {
		t.Fatal(err)
	}
	got, err := backend.Get("up")
	if err != nil || !bytes.Equal(got, content) {
		t.Fatalf("stored content mismatch (%d vs %d bytes), %v", len(got), len(content), err)
	}
}

func TestStoreBadResumeOffsetRejected(t *testing.T) {
	srv, _ := newPair(t)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Store("x", 0, 4, bytes.NewReader([]byte("abcd"))); err != nil {
		t.Fatal(err)
	}
	if err := c.Store("x", 99, 1, bytes.NewReader([]byte("z"))); err == nil {
		t.Fatal("mismatched resume offset accepted")
	}
}

func TestStoreOffsetZeroRestarts(t *testing.T) {
	srv, backend := newPair(t)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Store("x", 0, 4, bytes.NewReader([]byte("abcd")))
	c.Store("x", 0, 2, bytes.NewReader([]byte("zz")))
	got, _ := backend.Get("x")
	if string(got) != "zz" {
		t.Fatalf("restart: %q", got)
	}
}

func TestErrors(t *testing.T) {
	srv, _ := newPair(t)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Size("missing"); err == nil {
		t.Error("Size of missing ref succeeded")
	}
	var buf bytes.Buffer
	if _, err := c.Retrieve("missing", 0, &buf); err == nil {
		t.Error("Retrieve of missing ref succeeded")
	}
	if _, err := c.Retrieve("missing", -4, &buf); err == nil {
		t.Error("negative offset accepted")
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, backend := newPair(t)
	content := randBytes(100_000, 4)
	backend.Put("shared", content)

	var wg sync.WaitGroup
	errs := make([]error, 10)
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(srv.Addr())
			if err != nil {
				errs[i] = err
				return
			}
			defer c.Close()
			var buf bytes.Buffer
			if _, err := c.Retrieve("shared", 0, &buf); err != nil {
				errs[i] = err
				return
			}
			if !bytes.Equal(buf.Bytes(), content) {
				errs[i] = fmt.Errorf("content mismatch")
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("client %d: %v", i, err)
		}
	}
}

func TestThrottle(t *testing.T) {
	srv, backend := newPair(t, WithThrottle(200_000)) // 200 KB/s
	content := randBytes(100_000, 5)
	backend.Put("slow", content)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	var buf bytes.Buffer
	if _, err := c.Retrieve("slow", 0, &buf); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// 100 KB at 200 KB/s should take ~0.5s.
	if elapsed < 300*time.Millisecond {
		t.Errorf("throttled download of 100KB took only %v", elapsed)
	}
	if !bytes.Equal(buf.Bytes(), content) {
		t.Error("throttled content mismatch")
	}
}

func TestServerCloseSeversClients(t *testing.T) {
	srv, backend := newPair(t)
	backend.Put("f", randBytes(10, 6))
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv.Close()
	if _, err := c.Size("f"); err == nil {
		t.Error("Size after server close succeeded")
	}
}

// TestIdleConnectionSevered is the regression test for the deadlines
// finding on serveConn: before the idle deadline existed, a peer that
// went silent without closing its socket pinned the connection goroutine
// forever. Now the server severs it within one idle timeout.
func TestIdleConnectionSevered(t *testing.T) {
	srv, _ := newPair(t, WithIdleTimeout(100*time.Millisecond))
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Send nothing. The server must hang up on its own; the blocked read
	// below observes the close. Bound the wait so a regression fails fast
	// instead of deadlocking the test binary.
	done := make(chan error, 1)
	go func() {
		_, rerr := c.r.ReadString('\n')
		done <- rerr
	}()
	select {
	case rerr := <-done:
		if rerr == nil {
			t.Fatal("read returned nil error; expected server-side close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server kept the idle connection open past the idle timeout")
	}
}

// TestActiveConnectionSurvivesShortIdleTimeout pins that the deadline
// measures stall, not session length: a connection issuing commands and
// moving payload bytes across many idle-timeout windows stays up.
func TestActiveConnectionSurvivesShortIdleTimeout(t *testing.T) {
	srv, backend := newPair(t, WithIdleTimeout(150*time.Millisecond))
	content := randBytes(30_000, 7)
	backend.Put("f", content)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	deadline := time.Now().Add(600 * time.Millisecond)
	for time.Now().Before(deadline) {
		var buf bytes.Buffer
		if _, err := c.Retrieve("f", 0, &buf); err != nil {
			t.Fatalf("active connection severed: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), content) {
			t.Fatal("content mismatch on active connection")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestUnknownCommand(t *testing.T) {
	srv, _ := newPair(t)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fmt.Fprintf(c.w, "NOPE\n")
	c.w.Flush()
	if _, err := c.readStatus(); err == nil {
		t.Error("unknown command acknowledged")
	}
}
