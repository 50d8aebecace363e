package repository

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"
	"testing/iotest"
)

// sevenOnly hides whatever a backend implements beyond the seven Backend
// methods, so that OpenReader and OpenWriter take their fallback.
type sevenOnly struct{ Backend }

// streamBackends is every way content can stream: the two backends that
// implement Streamer and the fallback onto the plain Backend methods.
func streamBackends(t *testing.T) map[string]Backend {
	t.Helper()
	all := backends(t)
	all["fallback"] = sevenOnly{NewMemBackend()}
	if _, ok := all["fallback"].(Streamer); ok {
		t.Fatal("sevenOnly still streams")
	}
	return all
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*7)
	}
	return b
}

// readAll reads exactly the size OpenReader returned.
func readAll(t *testing.T, b Backend, ref string) []byte {
	t.Helper()
	r, size, err := OpenReader(b, ref)
	if err != nil {
		t.Fatalf("OpenReader(%s): %v", ref, err)
	}
	defer r.Close()
	got := make([]byte, size)
	if _, err := io.ReadFull(r, got); err != nil {
		t.Fatalf("reading %s: %v", ref, err)
	}
	return got
}

// write streams content into ref from off, through ReadFrom or Write.
func write(t *testing.T, b Backend, ref string, off, size int64, content []byte, readFrom bool) Writer {
	t.Helper()
	w, err := OpenWriter(b, ref, off, size)
	if err != nil {
		t.Fatalf("OpenWriter(%s, %d, %d): %v", ref, off, size, err)
	}
	if readFrom {
		// OneByteReader: many short reads, as off a socket.
		_, err = io.Copy(w, iotest.OneByteReader(bytes.NewReader(content)))
	} else {
		_, err = w.Write(content)
	}
	if err != nil {
		t.Fatalf("streaming into %s: %v", ref, err)
	}
	return w
}

func TestStreamConformance(t *testing.T) {
	content := pattern(10_000, 1)
	other := pattern(7_000, 99)
	cases := []struct {
		name string
		run  func(t *testing.T, b Backend)
	}{
		{"round trip, byte exact", func(t *testing.T, b Backend) {
			// Announced exactly, too small, too large and not at all.
			for i, size := range []int64{int64(len(content)), 100, 1 << 20, -1} {
				for _, readFrom := range []bool{true, false} {
					w := write(t, b, "r", 0, size, content, readFrom)
					if err := w.Commit(); err != nil {
						t.Fatal(err)
					}
					w.Close()
					if got := readAll(t, b, "r"); !bytes.Equal(got, content) {
						t.Fatalf("case %d readFrom=%v: read back %d bytes that differ", i, readFrom, len(got))
					}
					if got, err := b.Get("r"); err != nil || !bytes.Equal(got, content) {
						t.Fatalf("case %d readFrom=%v: Get = %d bytes, %v", i, readFrom, len(got), err)
					}
				}
			}
			if _, _, err := OpenReader(b, "missing"); !errors.Is(err, ErrNoContent) {
				t.Errorf("OpenReader(missing) = %v, want ErrNoContent", err)
			}
		}},
		{"reader seeks and reads at", func(t *testing.T, b Backend) {
			b.Put("r", content)
			r, size, err := OpenReader(b, "r")
			if err != nil || size != int64(len(content)) {
				t.Fatalf("OpenReader = size %d, %v", size, err)
			}
			defer r.Close()
			got := make([]byte, 100)
			if _, err := r.ReadAt(got, 5_000); err != nil || !bytes.Equal(got, content[5_000:5_100]) {
				t.Fatalf("ReadAt: %v", err)
			}
			if _, err := r.Seek(9_000, io.SeekStart); err != nil {
				t.Fatal(err)
			}
			if tail, err := io.ReadAll(r); err != nil || !bytes.Equal(tail, content[9_000:]) {
				t.Fatalf("after Seek: %d bytes, %v", len(tail), err)
			}
		}},
		{"resume at an offset lands in place", func(t *testing.T, b Backend) {
			const off = 4_000
			b.Put("r", content[:off])
			for _, bad := range []int64{off - 1, off + 1} {
				if _, err := OpenWriter(b, "r", bad, int64(len(content))); !errors.Is(err, ErrOffset) {
					t.Errorf("resume at %d of %d stored = %v, want ErrOffset", bad, off, err)
				}
			}
			if _, err := OpenWriter(b, "absent", 5, 10); !errors.Is(err, ErrOffset) {
				t.Errorf("resume of an absent ref = %v, want ErrOffset", err)
			}
			w := write(t, b, "r", off, int64(len(content)), content[off:7_000], true)
			// No Commit yet: a resume is visible as it lands.
			if n, err := b.Size("r"); err != nil || n != 7_000 {
				t.Fatalf("mid-resume Size = %d, %v; want 7000", n, err)
			}
			if _, err := w.Write(content[7_000:]); err != nil {
				t.Fatal(err)
			}
			if err := w.Commit(); err != nil {
				t.Fatal(err)
			}
			w.Close()
			if got := readAll(t, b, "r"); !bytes.Equal(got, content) {
				t.Fatal("resumed content differs")
			}
			// And a resume whose size was not announced.
			w = write(t, b, "r", int64(len(content)), -1, other, true)
			w.Commit()
			w.Close()
			if got := readAll(t, b, "r"); !bytes.Equal(got, append(append([]byte(nil), content...), other...)) {
				t.Fatal("unannounced resume differs")
			}
		}},
		{"aborted whole write leaves the previous content", func(t *testing.T, b Backend) {
			b.Put("r", content)
			w := write(t, b, "r", 0, int64(len(other)), other[:3_000], true)
			if got, err := b.Get("r"); err != nil || !bytes.Equal(got, content) {
				t.Fatalf("before Commit the ref holds %d bytes, %v; want the previous content", len(got), err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if got, err := b.Get("r"); err != nil || !bytes.Equal(got, content) {
				t.Fatalf("after an abort the ref holds %d bytes, %v; want the previous content", len(got), err)
			}
			if refs, err := b.Refs(); err != nil || len(refs) != 1 {
				t.Errorf("Refs after an abort = %v, %v", refs, err)
			}
			// A write cut short may still be committed as a prefix.
			w = write(t, b, "r", 0, int64(len(other)), other[:3_000], false)
			if err := w.Commit(); err != nil {
				t.Fatal(err)
			}
			w.Close()
			if got := readAll(t, b, "r"); !bytes.Equal(got, other[:3_000]) {
				t.Fatal("committed prefix differs")
			}
		}},
		{"reader opened before an overwrite sees the old bytes", func(t *testing.T, b Backend) {
			overwrites := map[string]func(){
				"Put": func() { b.Put("r", other) },
				"whole write": func() {
					w := write(t, b, "r", 0, int64(len(other)), other, true)
					w.Commit()
					w.Close()
				},
				"Delete": func() { b.Delete("r") },
				"Append": func() { b.Append("r", other) },
				"resume": func() {
					w := write(t, b, "r", int64(len(content)), -1, other, true)
					w.Commit()
					w.Close()
				},
			}
			for name, overwrite := range overwrites {
				b.Put("r", content)
				r, size, err := OpenReader(b, "r")
				if err != nil {
					t.Fatal(err)
				}
				overwrite()
				got := make([]byte, size)
				if _, err := io.ReadFull(r, got); err != nil || !bytes.Equal(got, content) {
					t.Errorf("after %s the reader sees %d bytes that differ (%v)", name, len(got), err)
				}
				r.Close()
			}
		}},
	}
	for name, b := range streamBackends(t) {
		for _, tc := range cases {
			t.Run(name+"/"+tc.name, func(t *testing.T) {
				b.Delete("r")
				tc.run(t, b)
			})
		}
	}
}

// TestStreamSnapshotsUnderWriters is the never-mutate-in-place invariant
// under the race detector: readers stream snapshots while writers replace
// and extend the ref every way there is. Every generation is one repeated
// byte, so a snapshot that mixes two shows.
func TestStreamSnapshotsUnderWriters(t *testing.T) {
	const size, rounds = 64 << 10, 60
	for name, b := range streamBackends(t) {
		t.Run(name, func(t *testing.T) {
			b.Put("r", bytes.Repeat([]byte{0}, size))
			var wg sync.WaitGroup
			stop := make(chan struct{})
			for i := 0; i < 3; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						r, n, err := OpenReader(b, "r")
						if err != nil {
							t.Errorf("OpenReader: %v", err)
							return
						}
						got := make([]byte, n)
						_, err = io.ReadFull(r, got)
						r.Close()
						if err != nil {
							t.Errorf("reading a snapshot: %v", err)
							return
						}
						if len(got) > 0 && !bytes.Equal(got, bytes.Repeat(got[:1], len(got))) {
							t.Errorf("snapshot of %d bytes mixes generations", len(got))
							return
						}
					}
				}()
			}
			for g := 1; g <= rounds; g++ {
				gen := bytes.Repeat([]byte{byte(g)}, size)
				switch g % 3 {
				case 0:
					b.Put("r", gen)
				case 1:
					w, err := OpenWriter(b, "r", 0, size)
					if err != nil {
						t.Fatal(err)
					}
					io.Copy(w, bytes.NewReader(gen))
					w.Commit()
					w.Close()
				case 2:
					// A prefix, then a resume that fills the rest in place.
					b.Put("r", gen[:size/4])
					w, err := OpenWriter(b, "r", size/4, size)
					if err != nil {
						t.Fatal(err)
					}
					io.Copy(w, iotest.HalfReader(bytes.NewReader(gen[size/4:])))
					w.Commit()
					w.Close()
				}
			}
			close(stop)
			wg.Wait()
		})
	}
}

// TestMemResumeRefusesChangedRef: a resume whose ref was replaced under it
// fails instead of publishing its reservation over the newcomer.
func TestMemResumeRefusesChangedRef(t *testing.T) {
	b := NewMemBackend()
	b.Put("r", []byte("prefix"))
	w, err := b.OpenWriter("r", 6, 12)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	b.Put("r", []byte("newer!"))
	if _, err := w.Write([]byte("suffix")); err == nil {
		t.Fatal("resume extended a ref that had been replaced")
	}
	if got, _ := b.Get("r"); string(got) != "newer!" {
		t.Fatalf("ref holds %q, want the replacement", got)
	}
}

// TestReservationIsNotDoubled: an exactly announced size costs one buffer of
// that size, not two, when the source's EOF comes in a read of its own.
func TestReservationIsNotDoubled(t *testing.T) {
	content := pattern(1<<20, 3)
	b := NewMemBackend()
	w, err := b.OpenWriter("r", 0, int64(len(content)))
	if err != nil {
		t.Fatal(err)
	}
	// A bytes.Reader delivers EOF in a read of its own; the wrapper hides
	// its WriteTo, which would bypass ReadFrom.
	if _, err := io.Copy(w, struct{ io.Reader }{bytes.NewReader(content)}); err != nil {
		t.Fatal(err)
	}
	if c := cap(w.(*memWriter).buf); c != len(content) {
		t.Fatalf("reservation grew to %d for %d announced bytes", c, len(content))
	}
}
