package repository

import (
	"bytes"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

func openDir(t testing.TB, dir string) *DirBackend {
	t.Helper()
	b, err := NewDirBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b
}

// holds fails unless b holds exactly want, byte for byte.
func holds(t *testing.T, b *DirBackend, want map[string][]byte, where string) {
	t.Helper()
	refs, err := b.Refs()
	if err != nil {
		t.Fatalf("%s: Refs: %v", where, err)
	}
	keys := make([]string, 0, len(want))
	for ref := range want {
		keys = append(keys, ref)
	}
	sort.Strings(keys)
	if !reflect.DeepEqual(refs, keys) {
		t.Fatalf("%s: Refs = %q, want %q", where, refs, keys)
	}
	for ref, c := range want {
		if got, err := b.Get(ref); err != nil || !bytes.Equal(got, c) {
			t.Fatalf("%s: %s holds %d bytes (%v), want %d", where, ref, len(got), err, len(c))
		}
	}
}

func names(t testing.TB, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		out = append(out, e.Name())
	}
	return out
}

func copyDir(t testing.TB, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range names(t, src) {
		raw, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// compact seals the current generation and waits for the copy: a
// synchronous compaction.
func compact(t testing.TB, b *DirBackend) {
	t.Helper()
	b.lockIdle()
	err := b.seal()
	b.mu.Unlock()
	if err == nil {
		b.lockIdle()
		err = b.compactErr
		b.mu.Unlock()
	}
	if err != nil {
		t.Fatal(err)
	}
}

// settle waits for the copy in flight, if any.
func settle(b *DirBackend) {
	b.lockIdle()
	b.mu.Unlock()
}

// TestDirBackendKeepsRefsApart: refs that a file name would fold together
// stay two refs.
func TestDirBackendKeepsRefsApart(t *testing.T) {
	b := openDir(t, t.TempDir())
	b.Put("a/b", []byte("one"))
	b.Put("a_b", []byte("two"))
	holds(t, b, map[string][]byte{"a/b": []byte("one"), "a_b": []byte("two")}, "two refs one file name apart")
}

// TestPackRefusesOldLayout: a directory an earlier build wrote, one file per
// ref, is refused with its name, and left as it was.
func TestPackRefusesOldLayout(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"u-1234", "u-5678~3"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("old"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, err := NewDirBackend(dir)
	if err == nil || !strings.Contains(err.Error(), dir) {
		t.Fatalf("NewDirBackend on the old layout = %v, want an error naming %s", err, dir)
	}
	if got := names(t, dir); len(got) != 2 {
		t.Errorf("the refused directory holds %q", got)
	}
}

// TestDirBackendRefusesAfterClose: a delete after Close fails like a put,
// instead of reporting a tombstone that was never journaled.
func TestDirBackendRefusesAfterClose(t *testing.T) {
	dir := t.TempDir()
	b := openDir(t, dir)
	if err := b.Put("r", []byte("x")); err != nil {
		t.Fatal(err)
	}
	b.Close()
	if err := b.Put("s", []byte("y")); err == nil {
		t.Error("a put after Close succeeded")
	}
	if err := b.Delete("r"); err == nil {
		t.Error("a delete after Close succeeded")
	}
	holds(t, openDir(t, dir), map[string][]byte{"r": []byte("x")}, "reopened")
}

// TestPackPutOpensNoFile: putting, overwriting and deleting 10 000 refs
// leaves the directory with as many files as the first put made.
func TestPackPutOpensNoFile(t *testing.T) {
	dir := t.TempDir()
	b := openDir(t, dir)
	b.Put("first", []byte("x"))
	files := len(names(t, dir))
	const refs = 10_000
	for round, content := range [][]byte{pattern(100, 1), pattern(60, 2), nil} {
		for i := 0; i < refs; i++ {
			ref := fmt.Sprint("r", i)
			var err error
			if content == nil {
				err = b.Delete(ref)
			} else {
				err = b.Put(ref, content)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		settle(b)
		if got := names(t, dir); len(got) != files {
			t.Fatalf("after round %d the directory holds %q, want %d files", round, got, files)
		}
	}
	holds(t, b, map[string][]byte{"first": []byte("x")}, "after the rounds")
}

// TestPackCrashPoints cuts the journal at every byte of its records, and the
// directory at every step of a compaction's generation switch, and reopens
// each image: it holds a prefix of what was committed, byte exact.
func TestPackCrashPoints(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "live")
	b := openDir(t, dir)
	model := map[string][]byte{}
	states := []map[string][]byte{{}}
	bounds := []int64{0}
	step := func() {
		t.Helper()
		st, err := os.Stat(filepath.Join(dir, "journal.1"))
		if err != nil {
			t.Fatal(err)
		}
		states, bounds = append(states, maps.Clone(model)), append(bounds, st.Size())
	}
	put := func(ref string, c []byte) {
		t.Helper()
		if err := b.Put(ref, c); err != nil {
			t.Fatal(err)
		}
		model[ref] = c
		step()
	}
	del := func(ref string) {
		t.Helper()
		if err := b.Delete(ref); err != nil {
			t.Fatal(err)
		}
		delete(model, ref)
		step()
	}
	put("a", pattern(300, 1))
	put("b", pattern(5000, 2))
	put("a", pattern(200, 3))
	if err := b.Append("b", pattern(100, 4)); err != nil {
		t.Fatal(err)
	}
	model["b"] = append(pattern(5000, 2), pattern(100, 4)...)
	step()
	del("a")
	w, err := b.OpenWriter("c", 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	w.Write(pattern(1000, 5))
	w.Commit()
	w.Close()
	model["c"] = pattern(1000, 5)
	step()
	// A resume publishes, and journals, every chunk as it lands.
	if w, err = b.OpenWriter("c", 1000, 1600); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		chunk := pattern(300, byte(6+i))
		if _, err := w.Write(chunk); err != nil {
			t.Fatal(err)
		}
		model["c"] = append(bytes.Clone(model["c"]), chunk...)
		step()
	}
	w.Close()
	put("../x", pattern(70, 8))
	del("b")
	put("empty", []byte{})

	journal := filepath.Join(dir, "journal.1")
	final := bounds[len(bounds)-1]
	for cut := int64(0); cut <= final; cut++ {
		img := filepath.Join(t.TempDir(), "img")
		copyDir(t, dir, img)
		if err := os.Truncate(filepath.Join(img, "journal.1"), cut); err != nil {
			t.Fatal(err)
		}
		i := sort.Search(len(bounds), func(i int) bool { return bounds[i] > cut }) - 1
		re := openDir(t, img)
		where := fmt.Sprintf("journal cut at %d of %d", cut, final)
		holds(t, re, states[i], where)
		// The torn tail is gone: what is written next is replayed too.
		if err := re.Put("next", []byte("after")); err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		want := maps.Clone(states[i])
		want["next"] = []byte("after")
		holds(t, openDir(t, img), want, where+", then a put")
	}

	// The generation switch, step by step: pre is the directory before the
	// compaction, post after it.
	pre := filepath.Join(t.TempDir(), "pre")
	copyDir(t, dir, pre)
	compact(t, b)
	post := filepath.Join(t.TempDir(), "post")
	copyDir(t, dir, post)
	if got := names(t, post); !reflect.DeepEqual(got, []string{"journal.2", "pack.2"}) {
		t.Fatalf("after compaction the directory holds %q", got)
	}
	read := func(name string) []byte {
		raw, err := os.ReadFile(filepath.Join(post, name))
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	pack2, journal2 := read("pack.2"), read("journal.2")
	type file struct {
		name string
		raw  []byte
	}
	switchSteps := []struct {
		name string
		add  []file
		drop []string
	}{
		{"half the new pack", []file{{"pack.2", pack2[:len(pack2)/2]}}, nil},
		{"the new pack", []file{{"pack.2", pack2}}, nil},
		{"half the new journal", []file{{"pack.2", pack2}, {"journal.2.tmp", journal2[:len(journal2)/2]}}, nil},
		{"the new journal", []file{{"pack.2", pack2}, {"journal.2.tmp", journal2}}, nil},
		{"the rename", []file{{"pack.2", pack2}, {"journal.2", journal2}}, nil},
		{"the old journal removed", []file{{"pack.2", pack2}, {"journal.2", journal2}}, []string{"journal.1"}},
		{"the old pack removed", []file{{"pack.2", pack2}, {"journal.2", journal2}}, []string{"journal.1", "pack.1"}},
	}
	for _, s := range switchSteps {
		img := filepath.Join(t.TempDir(), "img")
		copyDir(t, pre, img)
		for _, f := range s.add {
			if err := os.WriteFile(filepath.Join(img, f.name), f.raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		for _, name := range s.drop {
			if err := os.Remove(filepath.Join(img, name)); err != nil {
				t.Fatal(err)
			}
		}
		holds(t, openDir(t, img), model, "killed after "+s.name)
		if got := names(t, img); len(got) != 2 {
			t.Errorf("killed after %s, the reopened directory holds %q", s.name, got)
		}
	}
	if _, err := os.Stat(journal); !os.IsNotExist(err) {
		t.Errorf("the old journal outlived the switch: %v", err)
	}
	holds(t, b, model, "the compacted backend")
}

// TestPackResumeRefusesChangedRef: a resume whose ref was replaced under it
// fails instead of publishing the old prefix and its chunk over the
// newcomer, a compaction in between or not.
func TestPackResumeRefusesChangedRef(t *testing.T) {
	b := openDir(t, t.TempDir())
	b.Put("r", []byte("prefix"))
	w, err := b.OpenWriter("r", 6, 12)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.Write([]byte("suf"))
	compact(t, b)
	if _, err := w.Write([]byte("fix")); err != nil {
		t.Fatalf("a resume across a compaction: %v", err)
	}
	b.Put("r", []byte("newer!"))
	if _, err := w.Write([]byte("more")); err == nil {
		t.Fatal("resume extended a ref that had been replaced")
	}
	holds(t, b, map[string][]byte{"r": []byte("newer!")}, "after the refused resume")
}

// TestCompactAllocsConstant: what a compaction allocates does not grow with
// the number of live refs.
func TestCompactAllocsConstant(t *testing.T) {
	allocs := func(refs int) float64 {
		b := openDir(t, t.TempDir())
		for i := 0; i < refs; i++ {
			b.Put(fmt.Sprint("ref-", i), pattern(64, byte(i)))
		}
		return testing.AllocsPerRun(3, func() { compact(t, b) })
	}
	small, large := allocs(1024), allocs(8192)
	t.Logf("a compaction allocates %v times over 1024 live refs, %v over 8192", small, large)
	if large > small {
		t.Errorf("a compaction of 8192 live refs allocates %v times, of 1024 %v times", large, small)
	}
}

// TestCompactKeepsReadersAndWriters: readers opened before a compaction read
// byte exact after it, and writes that straddle one land whole, while puts
// go on meanwhile.
func TestCompactKeepsReadersAndWriters(t *testing.T) {
	b := openDir(t, t.TempDir())
	want := map[string][]byte{}
	for i := 0; i < 64; i++ {
		ref := fmt.Sprint("r", i)
		b.Put(ref, pattern(4000, 1))
		want[ref] = pattern(5000+i, byte(i))
		b.Put(ref, want[ref])
	}
	readers := map[string]Reader{}
	for i := 0; i < 64; i += 8 {
		ref := fmt.Sprint("r", i)
		r, _, err := b.OpenReader(ref)
		if err != nil {
			t.Fatal(err)
		}
		readers[ref] = r
		b.Delete(ref)
	}
	whole, err := b.OpenWriter("whole", 0, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	whole.Write(pattern(10_000, 9))
	resumed, err := b.OpenWriter("r1", int64(len(want["r1"])), -1)
	if err != nil {
		t.Fatal(err)
	}
	resumed.Write(pattern(100, 10))

	var wg sync.WaitGroup
	started, stop := make(chan struct{}), make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			err := b.Put("busy", pattern(1000, byte(i)))
			if i == 0 {
				close(started)
			}
			if err != nil {
				t.Error(err)
				return
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	<-started
	for i := 0; i < 3; i++ {
		compact(t, b)
	}
	close(stop)
	wg.Wait()

	whole.Write(pattern(10_000, 11))
	whole.Commit()
	whole.Close()
	resumed.Write(pattern(100, 12))
	resumed.Close()
	for ref, r := range readers {
		got, err := io.ReadAll(r)
		r.Close()
		if err != nil || !bytes.Equal(got, want[ref]) {
			t.Errorf("a reader of %s opened before the compactions read %d bytes (%v), want %d", ref, len(got), err, len(want[ref]))
		}
		delete(want, ref)
	}
	want["whole"] = append(pattern(10_000, 9), pattern(10_000, 11)...)
	want["r1"] = append(append(bytes.Clone(want["r1"]), pattern(100, 10)...), pattern(100, 12)...)
	busy, _ := b.Get("busy")
	want["busy"] = busy
	holds(t, b, want, "after the compactions")
}

// FuzzPackReplay: whatever a journal holds, opening it never fails or
// panics, keeps a prefix of it, serves what that prefix says byte for byte
// the same after a reopen, and goes on journaling after it.
func FuzzPackReplay(f *testing.F) {
	clean := appendRecord(nil, 'P', "a", 0, 100)
	clean = appendRecord(clean, 'P', "b", 100, 4000)
	clean = appendRecord(clean, 'D', "a", 0, 0)
	f.Add([]byte{})
	f.Add(clean)
	f.Add(clean[:len(clean)-3])
	f.Add(appendRecord(clean, 'P', "far", 4000, 200))
	f.Add(append(bytes.Clone(clean), []byte("garbage past the end")...))
	pack := pattern(4096, 7)
	f.Fuzz(func(t *testing.T, journal []byte) {
		dir := t.TempDir()
		os.WriteFile(filepath.Join(dir, "pack.1"), pack, 0o644)
		os.WriteFile(filepath.Join(dir, "journal.1"), journal, 0o644)
		b, err := NewDirBackend(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		kept, _ := os.ReadFile(filepath.Join(dir, "journal.1"))
		if !bytes.HasPrefix(journal, kept) {
			t.Fatalf("replay kept %d bytes that are not a prefix of the journal", len(kept))
		}
		refs, _ := b.Refs()
		want := map[string][]byte{}
		for _, ref := range refs {
			c, err := b.Get(ref)
			if err != nil || !bytes.Contains(pack, c) {
				t.Fatalf("%q: %d bytes not from the pack (%v)", ref, len(c), err)
			}
			want[ref] = c
		}
		again := openDir(t, dir)
		holds(t, again, want, "reopened")
		if err := again.Put("new", []byte("after")); err != nil {
			t.Fatal(err)
		}
		want["new"] = []byte("after")
		holds(t, openDir(t, dir), want, "after a put")
	})
}
