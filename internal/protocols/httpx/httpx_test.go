package httpx

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"testing"
	"testing/iotest"

	"bitdew/internal/repository"
)

func newServer(t *testing.T) (*Server, repository.Backend) {
	t.Helper()
	backend := repository.NewMemBackend()
	srv, err := NewServer(backend, "127.0.0.1:0")
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

func TestGetWhole(t *testing.T) {
	srv, backend := newServer(t)
	content := randBytes(150_000, 1)
	backend.Put("f", content)

	c := NewClient()
	size, err := c.Size(srv.Addr(), "f")
	if err != nil || size != int64(len(content)) {
		t.Fatalf("Size = %d, %v", size, err)
	}
	var buf bytes.Buffer
	n, err := c.Get(srv.Addr(), "f", 0, &buf)
	if err != nil || n != int64(len(content)) || !bytes.Equal(buf.Bytes(), content) {
		t.Fatalf("Get = %d bytes, %v", n, err)
	}
}

func TestGetResumeFromOffset(t *testing.T) {
	srv, backend := newServer(t)
	content := randBytes(90_000, 2)
	backend.Put("f", content)

	c := NewClient()
	var buf bytes.Buffer
	buf.Write(content[:30_000]) // pretend the first 30k arrived before a crash
	n, err := c.Get(srv.Addr(), "f", 30_000, &buf)
	if err != nil || n != 60_000 {
		t.Fatalf("resume Get = %d, %v", n, err)
	}
	if !bytes.Equal(buf.Bytes(), content) {
		t.Fatal("resumed content mismatch")
	}
}

func TestGetMissing(t *testing.T) {
	srv, _ := newServer(t)
	c := NewClient()
	var buf bytes.Buffer
	if _, err := c.Get(srv.Addr(), "missing", 0, &buf); err == nil {
		t.Error("Get of missing ref succeeded")
	}
	if _, err := c.Size(srv.Addr(), "missing"); err == nil {
		t.Error("Size of missing ref succeeded")
	}
}

func TestPutWholeAndDelete(t *testing.T) {
	srv, backend := newServer(t)
	content := randBytes(40_000, 3)
	c := NewClient()
	if err := c.Put(srv.Addr(), "up", bytes.NewReader(content)); err != nil {
		t.Fatal(err)
	}
	got, err := backend.Get("up")
	if err != nil || !bytes.Equal(got, content) {
		t.Fatalf("stored: %d bytes, %v", len(got), err)
	}
	if err := c.Delete(srv.Addr(), "up"); err != nil {
		t.Fatal(err)
	}
	if _, err := backend.Get("up"); err == nil {
		t.Error("content survived DELETE")
	}
}

func TestAppendResumeUpload(t *testing.T) {
	srv, backend := newServer(t)
	content := randBytes(64_000, 4)
	c := NewClient()
	if err := c.Put(srv.Addr(), "up", bytes.NewReader(content[:20_000])); err != nil {
		t.Fatal(err)
	}
	if err := c.Append(srv.Addr(), "up", 20_000, bytes.NewReader(content[20_000:])); err != nil {
		t.Fatal(err)
	}
	got, _ := backend.Get("up")
	if !bytes.Equal(got, content) {
		t.Fatal("append-resumed content mismatch")
	}
	// Wrong offset refused.
	if err := c.Append(srv.Addr(), "up", 5, bytes.NewReader([]byte("x"))); err == nil {
		t.Error("append at wrong offset accepted")
	}
}

// TestGetRanges pins the Range forms on the wire: what a resuming client
// sends, what it gets, and that an unsatisfiable range is refused.
func TestGetRanges(t *testing.T) {
	srv, backend := newServer(t)
	content := randBytes(100, 6)
	backend.Put("f", content)
	cases := []struct {
		header   string
		off, end int // of content; status 206
		refused  bool
	}{
		{"bytes=0-", 0, 100, false},
		{"bytes=10-", 10, 100, false},
		{"bytes=10-19", 10, 20, false},
		{"bytes=10-999", 10, 100, false},
		{"bytes=100-", 0, 0, true},
		{"bytes=101-", 0, 0, true},
		{"bytes=5-2", 0, 0, true},
		{"bits=0-5", 0, 0, true},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(http.MethodGet, url(srv.Addr(), "f"), nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Range", tc.header)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if tc.refused {
			if resp.StatusCode != http.StatusRequestedRangeNotSatisfiable {
				t.Errorf("Range %q: status %d, want 416", tc.header, resp.StatusCode)
			}
			continue
		}
		if resp.StatusCode != http.StatusPartialContent || !bytes.Equal(got, content[tc.off:tc.end]) {
			t.Errorf("Range %q: status %d, %d bytes, want 206 and content[%d:%d]", tc.header, resp.StatusCode, len(got), tc.off, tc.end)
		}
	}
}

// TestPutStreamsAndPublishesWhole covers the upload path's two promises: a
// body of unknown length (chunked) is stored whole, and a whole-content
// upload whose body breaks off leaves the previous content in place.
func TestPutStreamsAndPublishesWhole(t *testing.T) {
	srv, backend := newServer(t)
	c := NewClient()
	content := randBytes(300_000, 7)
	// An io.Reader that cannot seek is sent chunked.
	if err := c.Put(srv.Addr(), "up", io.MultiReader(bytes.NewReader(content))); err != nil {
		t.Fatal(err)
	}
	if got, err := backend.Get("up"); err != nil || !bytes.Equal(got, content) {
		t.Fatalf("chunked upload stored %d bytes, %v", len(got), err)
	}
	// A body that fails half way: the transport gives up on the request.
	broken := io.MultiReader(bytes.NewReader(content[:100_000]), iotest.ErrReader(errors.New("source died")))
	if err := c.Put(srv.Addr(), "up", broken); err == nil {
		t.Fatal("upload of a broken body succeeded")
	}
	if got, err := backend.Get("up"); err != nil || !bytes.Equal(got, content) {
		t.Fatalf("after a broken upload the ref holds %d bytes, %v; want the previous content", len(got), err)
	}
	// Empty content is content.
	if err := c.Put(srv.Addr(), "empty", bytes.NewReader(nil)); err != nil {
		t.Fatal(err)
	}
	if n, err := backend.Size("empty"); err != nil || n != 0 {
		t.Fatalf("empty upload: size %d, %v", n, err)
	}
}

func TestConcurrentGets(t *testing.T) {
	srv, backend := newServer(t)
	content := randBytes(120_000, 5)
	backend.Put("shared", content)
	c := NewClient()
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			if _, err := c.Get(srv.Addr(), "shared", 0, &buf); err != nil {
				t.Errorf("Get: %v", err)
				return
			}
			if !bytes.Equal(buf.Bytes(), content) {
				t.Error("content mismatch")
			}
		}()
	}
	wg.Wait()
}
