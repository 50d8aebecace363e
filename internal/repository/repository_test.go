package repository

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"bitdew/internal/data"
	"bitdew/internal/rpc"
)

func backends(t *testing.T) map[string]Backend {
	t.Helper()
	dir, err := NewDirBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Backend{
		"mem": NewMemBackend(),
		"dir": dir,
	}
}

func TestBackendBasics(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			if err := b.Put("r1", []byte("hello")); err != nil {
				t.Fatal(err)
			}
			got, err := b.Get("r1")
			if err != nil || !bytes.Equal(got, []byte("hello")) {
				t.Fatalf("Get = %q, %v", got, err)
			}
			n, err := b.Size("r1")
			if err != nil || n != 5 {
				t.Fatalf("Size = %d, %v", n, err)
			}
			// Overwrite.
			b.Put("r1", []byte("bye"))
			got, _ = b.Get("r1")
			if string(got) != "bye" {
				t.Fatalf("overwrite: %q", got)
			}
			// Missing refs.
			if _, err := b.Get("missing"); !errors.Is(err, ErrNoContent) {
				t.Errorf("Get missing: %v", err)
			}
			if _, err := b.Size("missing"); !errors.Is(err, ErrNoContent) {
				t.Errorf("Size missing: %v", err)
			}
			// Delete (idempotent).
			if err := b.Delete("r1"); err != nil {
				t.Fatal(err)
			}
			if err := b.Delete("r1"); err != nil {
				t.Fatal(err)
			}
			if _, err := b.Get("r1"); err == nil {
				t.Fatal("Get after Delete succeeded")
			}
		})
	}
}

func TestBackendAppendAndRange(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			if err := b.Append("f", []byte("abc")); err != nil { // append creates
				t.Fatal(err)
			}
			if err := b.Append("f", []byte("defgh")); err != nil {
				t.Fatal(err)
			}
			got, _ := b.Get("f")
			if string(got) != "abcdefgh" {
				t.Fatalf("after appends: %q", got)
			}
			r, err := b.GetRange("f", 2, 3)
			if err != nil || string(r) != "cde" {
				t.Fatalf("GetRange(2,3) = %q, %v", r, err)
			}
			// Range clipped at end.
			r, err = b.GetRange("f", 6, 100)
			if err != nil || string(r) != "gh" {
				t.Fatalf("GetRange(6,100) = %q, %v", r, err)
			}
			// Zero-length range at end is legal (resume of complete file).
			r, err = b.GetRange("f", 8, 4)
			if err != nil || len(r) != 0 {
				t.Fatalf("GetRange(8,4) = %q, %v", r, err)
			}
			// Out of bounds.
			if _, err := b.GetRange("f", 9, 1); err == nil {
				t.Error("GetRange past end succeeded")
			}
			if _, err := b.GetRange("f", -1, 1); err == nil {
				t.Error("GetRange negative offset succeeded")
			}
			if _, err := b.GetRange("f", 3, -1); err == nil {
				t.Error("GetRange negative length succeeded")
			}
			if _, err := b.GetRange("missing", 0, 1); !errors.Is(err, ErrNoContent) {
				t.Errorf("GetRange missing: %v", err)
			}
		})
	}
}

func TestBackendRefs(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			b.Put("b", []byte("1"))
			b.Put("a", []byte("2"))
			b.Put("c", []byte("3"))
			refs, err := b.Refs()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(refs, []string{"a", "b", "c"}) {
				t.Errorf("Refs = %v", refs)
			}
		})
	}
}

func TestBackendConcurrentAppend(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			for i := 0; i < 8; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j := 0; j < 25; j++ {
						if err := b.Append("cc", []byte("x")); err != nil {
							t.Errorf("Append: %v", err)
							return
						}
					}
				}()
			}
			wg.Wait()
			n, err := b.Size("cc")
			if err != nil || n != 200 {
				t.Errorf("Size = %d, %v; want 200", n, err)
			}
		})
	}
}

// TestDirBackendSanitisesRefs: a hostile ref is a key like any other. It
// round-trips exactly, and nothing is written outside the root.
func TestDirBackendSanitisesRefs(t *testing.T) {
	parent := t.TempDir()
	b, err := NewDirBackend(filepath.Join(parent, "root"))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Put("../escape", []byte("x")); err != nil {
		t.Fatal(err)
	}
	got, err := b.Get("../escape")
	if err != nil || string(got) != "x" {
		t.Fatalf("round trip through hostile ref: %q, %v", got, err)
	}
	if refs, _ := b.Refs(); !reflect.DeepEqual(refs, []string{"../escape"}) {
		t.Errorf("Refs = %q, want the hostile ref itself", refs)
	}
	if entries, _ := os.ReadDir(parent); len(entries) != 1 {
		t.Errorf("the root's parent holds %v, want the root alone", entries)
	}
}

// TestDirBackendRefusesRootRefs: the refs whose safe names are "", "." and
// ".." would name the root and its parent. Every method refuses them, the
// root survives, and nothing is opened or written outside it.
func TestDirBackendRefusesRootRefs(t *testing.T) {
	parent := t.TempDir()
	root := filepath.Join(parent, "root")
	b, err := NewDirBackend(root)
	if err != nil {
		t.Fatal(err)
	}
	calls := map[string]func(ref string) error{
		"Put":    func(ref string) error { return b.Put(ref, []byte("x")) },
		"Append": func(ref string) error { return b.Append(ref, []byte("x")) },
		"Get":    func(ref string) error { _, err := b.Get(ref); return err },
		"GetRange": func(ref string) error {
			_, err := b.GetRange(ref, 0, 1)
			return err
		},
		"Size":   func(ref string) error { _, err := b.Size(ref); return err },
		"Delete": b.Delete,
		"OpenReader": func(ref string) error {
			r, _, err := b.OpenReader(ref)
			if err == nil {
				r.Close()
			}
			return err
		},
		"OpenWriter": func(ref string) error {
			w, err := b.OpenWriter(ref, 0, 1)
			if err == nil {
				w.Write([]byte("x"))
				err = w.Commit()
			}
			return err
		},
	}
	for _, ref := range []string{"", ".", ".."} {
		for name, call := range calls {
			if err := call(ref); err == nil {
				t.Errorf("%s(%q) succeeded", name, ref)
			}
		}
	}
	if st, err := os.Stat(root); err != nil || !st.IsDir() {
		t.Fatalf("the root did not survive: %v", err)
	}
	for dir, want := range map[string]int{parent: 1, root: 0} {
		if entries, _ := os.ReadDir(dir); len(entries) != want {
			t.Errorf("%s holds %d entries, want %d: %v", dir, len(entries), want, entries)
		}
	}
	if err := b.Put("r", []byte("x")); err != nil {
		t.Errorf("Put after the refused refs: %v", err)
	}
}

// TestReadViewIsStable: what Get and GetRange hand out is never written
// afterwards, whatever is done to the ref, and a MemBackend view has no
// room behind it for a caller's append to write into. Under -race, the
// concurrent case shows an Append that writes into a view being read.
func TestReadViewIsStable(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			type view struct{ got, want []byte }
			var views []view
			take := func(op string) {
				t.Helper()
				whole, err := b.Get("r")
				if err != nil {
					t.Fatalf("Get after %s: %v", op, err)
				}
				part, err := b.GetRange("r", 1, 4)
				if err != nil {
					t.Fatalf("GetRange after %s: %v", op, err)
				}
				for _, v := range [][]byte{whole, part} {
					if _, mem := b.(*MemBackend); mem && cap(v) != len(v) {
						t.Errorf("a view after %s has cap %d for len %d", op, cap(v), len(v))
					}
					// A caller's append must land in a buffer of its own.
					grown := append(v, 'z')
					views = append(views, view{v, bytes.Clone(v)}, view{grown, bytes.Clone(grown)})
				}
			}
			check := func(op string) {
				t.Helper()
				for i, v := range views {
					if !bytes.Equal(v.got, v.want) {
						t.Fatalf("view %d changed after %s: %q, want %q", i, op, v.got, v.want)
					}
				}
			}
			steps := []struct {
				op string
				do func() error
			}{
				{"Put", func() error { return b.Put("r", pattern(40, 1)) }},
				{"Append", func() error { return b.Append("r", pattern(9, 2)) }},
				{"Append", func() error { return b.Append("r", pattern(5, 3)) }},
				{"a resume", func() error {
					w := write(t, b, "r", 54, 80, pattern(26, 4), false)
					defer w.Close()
					return w.Commit()
				}},
				{"a whole-content write", func() error {
					w := write(t, b, "r", 0, 30, pattern(30, 5), true)
					defer w.Close()
					return w.Commit()
				}},
				{"Append", func() error { return b.Append("r", pattern(3, 6)) }},
			}
			for _, s := range steps {
				if err := s.do(); err != nil {
					t.Fatalf("%s: %v", s.op, err)
				}
				check(s.op)
				take(s.op)
			}
			if err := b.Delete("r"); err != nil {
				t.Fatal(err)
			}
			check("Delete")
			if err := b.Append("r", pattern(64, 7)); err != nil {
				t.Fatal(err)
			}
			check("an Append after Delete")
		})
		t.Run(name+"/concurrent Append", func(t *testing.T) { readViewsUnderAppends(t, b) })
	}
}

// readViewsUnderAppends reads views of a ref while another goroutine
// appends to it one byte at a time.
func readViewsUnderAppends(t *testing.T, b Backend) {
	const rounds = 400
	want := pattern(rounds, 9)
	b.Append("c", want[:1])
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i < rounds; i++ {
			if err := b.Append("c", want[i:i+1]); err != nil {
				t.Errorf("Append: %v", err)
				return
			}
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		whole, err := b.Get("c")
		if err != nil {
			t.Fatal(err)
		}
		part, err := b.GetRange("c", 0, rounds)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range [][]byte{whole, part} {
			if !bytes.Equal(v, want[:len(v)]) {
				t.Fatalf("a %d-byte view is not the prefix appended", len(v))
			}
			if _, mem := b.(*MemBackend); mem && cap(v) != len(v) {
				t.Fatalf("a view has cap %d for len %d", cap(v), len(v))
			}
		}
	}
}

func TestQuickMemBackendRoundTrip(t *testing.T) {
	b := NewMemBackend()
	f := func(ref string, content []byte) bool {
		if err := b.Put(ref, content); err != nil {
			return false
		}
		got, err := b.Get(ref)
		return err == nil && bytes.Equal(got, content)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickRangeConsistent(t *testing.T) {
	b := NewMemBackend()
	content := []byte("0123456789abcdefghij")
	b.Put("r", content)
	f := func(off, n uint8) bool {
		o, c := int64(off)%21, int64(n)%25
		got, err := b.GetRange("r", o, c)
		if err != nil {
			return false
		}
		end := o + c
		if end > int64(len(content)) {
			end = int64(len(content))
		}
		return bytes.Equal(got, content[o:end])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestServiceLocators(t *testing.T) {
	s := NewService(NewMemBackend())
	uid := data.NewUID()
	s.Backend().Put(string(uid), []byte("content"))

	if _, err := s.Locator(uid, "ftp"); err == nil {
		t.Error("Locator with no endpoints succeeded")
	}
	s.RegisterEndpoint("ftp", "127.0.0.1:2121")
	s.RegisterEndpoint("http", "127.0.0.1:8080")

	l, err := s.Locator(uid, "ftp")
	if err != nil {
		t.Fatal(err)
	}
	if l.Host != "127.0.0.1:2121" || l.Ref != string(uid) || l.Protocol != "ftp" {
		t.Errorf("Locator = %+v", l)
	}
	if got := s.Protocols(); !reflect.DeepEqual(got, []string{"ftp", "http"}) {
		t.Errorf("Protocols = %v", got)
	}
	// LocatorAny: preferred honoured, fallback when absent.
	l, err = s.LocatorAny(uid, "http")
	if err != nil || l.Protocol != "http" {
		t.Errorf("LocatorAny preferred = %+v, %v", l, err)
	}
	l, err = s.LocatorAny(uid, "bittorrent")
	if err != nil || l.Protocol != "ftp" {
		t.Errorf("LocatorAny fallback = %+v, %v", l, err)
	}
	if !s.Has(uid) {
		t.Error("Has = false for stored datum")
	}
	if s.Has(data.NewUID()) {
		t.Error("Has = true for unknown datum")
	}
}

func TestServiceOverRPC(t *testing.T) {
	s := NewService(NewMemBackend())
	s.RegisterEndpoint("http", "127.0.0.1:9999")
	uid := data.NewUID()
	s.Backend().Put(string(uid), []byte("payload"))

	mux := rpc.NewMux()
	s.Mount(mux)
	srv, err := rpc.Listen("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rcl, err := rpc.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rcl.Close()
	c := NewClient(rcl)

	l, err := c.Locator(uid, "http")
	if err != nil || l.Host != "127.0.0.1:9999" {
		t.Fatalf("Locator = %+v, %v", l, err)
	}
	if _, err := c.Locator(uid, "ftp"); err == nil {
		t.Error("Locator over unserved protocol succeeded")
	}
	protos, err := c.Protocols()
	if err != nil || len(protos) != 1 {
		t.Fatalf("Protocols = %v, %v", protos, err)
	}
	ok, err := c.Has(uid)
	if err != nil || !ok {
		t.Fatalf("Has = %v, %v", ok, err)
	}
	// Content leaves with its catalog row, server-side; Has sees it go.
	if err := s.Backend().Delete(string(uid)); err != nil {
		t.Fatal(err)
	}
	ok, _ = c.Has(uid)
	if ok {
		t.Error("Has after Delete = true")
	}
	l, err = c.LocatorAny(uid, "")
	if err != nil || l.Protocol != "http" {
		t.Errorf("LocatorAny = %+v, %v", l, err)
	}
}

func TestLocatorAnyDeterministicFallback(t *testing.T) {
	s := NewService(NewMemBackend())
	s.RegisterEndpoint("http", "h")
	s.RegisterEndpoint("bittorrent", "b")
	s.RegisterEndpoint("ftp", "f")
	for i := 0; i < 5; i++ {
		l, err := s.LocatorAny(data.UID(fmt.Sprint(i)), "")
		if err != nil || l.Protocol != "bittorrent" {
			t.Errorf("LocatorAny fallback = %+v (want first sorted protocol)", l)
		}
	}
}
