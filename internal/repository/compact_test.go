package repository

import (
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
)

// holdCopies makes every copy of b wait, off the backend's lock, until
// release is closed; entered is closed when the first one starts waiting.
func holdCopies(b *DirBackend) (entered, release chan struct{}) {
	entered, release = make(chan struct{}), make(chan struct{})
	var once sync.Once
	b.hold = func() {
		once.Do(func() { close(entered) })
		<-release
	}
	return entered, release
}

// sealNow seals the current generation and starts the copy without
// waiting for it.
func sealNow(t *testing.T, b *DirBackend) {
	t.Helper()
	b.mu.Lock()
	err := b.seal()
	b.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
}

func isClosed(b *DirBackend) bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.closed
}

// TestPackCompactionFailureKeepsTheWrite: a write whose compaction fails is
// stored, and reports success; Close reports the failure, and once the
// cause is gone the next write compacts.
func TestPackCompactionFailureKeepsTheWrite(t *testing.T) {
	dir := t.TempDir()
	b := openDir(t, dir)
	blocked := filepath.Join(dir, "pack.2")
	if err := os.Mkdir(blocked, 0o755); err != nil { // the next generation cannot be made
		t.Fatal(err)
	}
	// The third put makes 1.2 MB of the pack dead, past the live 600 KB.
	for i := 0; i < 3; i++ {
		if err := b.Put("a", pattern(600<<10, byte(i))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	holds(t, b, map[string][]byte{"a": pattern(600<<10, 2)}, "after the failed compaction")
	if err := b.Close(); err == nil {
		t.Fatal("Close did not report the failed compaction")
	}

	if err := os.Remove(blocked); err != nil {
		t.Fatal(err)
	}
	re := openDir(t, dir)
	holds(t, re, map[string][]byte{"a": pattern(600<<10, 2)}, "reopened")
	if err := re.Put("a", pattern(600<<10, 3)); err != nil {
		t.Fatal(err)
	}
	settle(re)
	if got := names(t, dir); !reflect.DeepEqual(got, []string{"journal.2", "pack.2"}) {
		t.Fatalf("the write after the unblocking did not compact: the directory holds %q", got)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	holds(t, openDir(t, dir), map[string][]byte{"a": pattern(600<<10, 3)}, "compacted and reopened")
}

// TestPackCompactionBesideWrites: while a compaction's copy is held, puts,
// deletes, reads and a resume of refs in the sealed generation complete;
// the copy then moves what is left, and the older generation goes.
func TestPackCompactionBesideWrites(t *testing.T) {
	dir := t.TempDir()
	b := openDir(t, dir)
	entered, release := holdCopies(b)
	want := map[string][]byte{"keep": pattern(3000, 1), "gone": pattern(2000, 2), "grown": pattern(1000, 3)}
	for ref, c := range want {
		b.Put(ref, c)
	}
	for i := 0; b.g.n == 1; i++ { // overwrites, until one seals
		if i == 10 {
			t.Fatal("10 overwrites of 300 KB started no compaction")
		}
		want["churn"] = pattern(300<<10, byte(i))
		if err := b.Put("churn", want["churn"]); err != nil {
			t.Fatal(err)
		}
	}
	<-entered
	r, _, err := b.OpenReader("keep")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Put("new", pattern(500, 4)); err != nil {
		t.Fatal(err)
	}
	if err := b.Delete("gone"); err != nil {
		t.Fatal(err)
	}
	w, err := b.OpenWriter("grown", 1000, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(pattern(500, 5)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	want["new"], want["grown"] = pattern(500, 4), append(pattern(1000, 3), pattern(500, 5)...)
	delete(want, "gone")
	holds(t, b, want, "beside the held copy")
	close(release)
	settle(b)
	if got := names(t, dir); !reflect.DeepEqual(got, []string{"journal.2", "pack.2"}) {
		t.Fatalf("after the copy the directory holds %q", got)
	}
	if got, err := io.ReadAll(r); err != nil || string(got) != string(want["keep"]) {
		t.Fatalf("a reader opened before the copy read %d bytes (%v)", len(got), err)
	}
	r.Close()
	holds(t, b, want, "after the copy")
	holds(t, openDir(t, dir), want, "reopened")
}

// TestPackCloseDuringHeldCompaction: Close stops a held copy and returns
// once it has; the directory, both generations in it, reopens byte exact,
// and the copy runs to its end after the reopen.
func TestPackCloseDuringHeldCompaction(t *testing.T) {
	dir := t.TempDir()
	b := openDir(t, dir)
	entered, release := holdCopies(b)
	want := map[string][]byte{"a": pattern(100, 1), "b": pattern(200, 2)}
	for ref, c := range want {
		b.Put(ref, c)
	}
	sealNow(t, b)
	b.Put("c", pattern(300, 3))
	want["c"] = pattern(300, 3)
	<-entered
	closed := make(chan error)
	go func() { closed <- b.Close() }()
	for !isClosed(b) {
		runtime.Gosched()
	}
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while the copy was held", err)
	default:
	}
	close(release)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if got := names(t, dir); len(got) != 4 {
		t.Fatalf("the copy ran on after Close: the directory holds %q", got)
	}
	re := openDir(t, dir)
	holds(t, re, want, "reopened")
	settle(re)
	if got := names(t, dir); !reflect.DeepEqual(got, []string{"journal.2", "pack.2"}) {
		t.Fatalf("after the copy the reopen restarted, the directory holds %q", got)
	}
	holds(t, re, want, "reopened, after the copy")
}

// TestPackCompactionCrashImages reopens the directory a crash leaves in the
// middle of a copy: the sealed generation whole, and the newer journal cut
// at every byte, with the writes made beside the copy and the copy's
// re-publications in it. Each image holds a prefix of the acknowledged
// writes, byte exact; once the copy the reopen starts has run, one
// generation is left.
func TestPackCompactionCrashImages(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "live")
	b := openDir(t, dir)
	entered, release := holdCopies(b)
	model := map[string][]byte{}
	for i, ref := range []string{"a", "b", "c", "d"} {
		model[ref] = pattern(100*(i+1), byte(i))
		b.Put(ref, model[ref])
	}
	b.Put("a", pattern(50, 9)) // dead bytes in the sealed generation
	model["a"] = pattern(50, 9)
	sealNow(t, b)
	states, bounds := []map[string][]byte{maps.Clone(model)}, []int64{0}
	step := func() {
		t.Helper()
		st, err := os.Stat(filepath.Join(dir, "journal.2"))
		if err != nil {
			t.Fatal(err)
		}
		states, bounds = append(states, maps.Clone(model)), append(bounds, st.Size())
	}
	<-entered
	b.Put("b", pattern(70, 10))
	model["b"] = pattern(70, 10)
	step()
	b.Delete("c")
	delete(model, "c")
	step()
	b.Put("e", pattern(80, 11))
	model["e"] = pattern(80, 11)
	step()
	sealed := filepath.Join(t.TempDir(), "sealed")
	copyDir(t, dir, sealed)
	close(release)
	settle(b)
	pack2, err := os.ReadFile(filepath.Join(dir, "pack.2"))
	if err != nil {
		t.Fatal(err)
	}
	journal2, err := os.ReadFile(filepath.Join(dir, "journal.2"))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(journal2)) <= bounds[len(bounds)-1] {
		t.Fatal("the copy re-published nothing")
	}
	for cut := 0; cut <= len(journal2); cut++ {
		img := filepath.Join(t.TempDir(), "img")
		copyDir(t, sealed, img)
		os.WriteFile(filepath.Join(img, "pack.2"), pack2, 0o644)
		os.WriteFile(filepath.Join(img, "journal.2"), journal2[:cut], 0o644)
		i := sort.Search(len(bounds), func(i int) bool { return bounds[i] > int64(cut) }) - 1
		where := fmt.Sprintf("journal.2 cut at %d of %d", cut, len(journal2))
		re := openDir(t, img)
		holds(t, re, states[i], where)
		settle(re)
		if got := names(t, img); !reflect.DeepEqual(got, []string{"journal.2", "pack.2"}) {
			t.Fatalf("%s: after the copy the directory holds %q", where, got)
		}
		holds(t, re, states[i], where+", after the copy")
		re.Close()
		holds(t, openDir(t, img), states[i], where+", reopened after the copy")
	}
}
