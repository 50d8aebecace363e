package db

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// holdCopies makes every copy of s wait, off the store's lock, until release
// is closed; entered is closed when the first one starts waiting.
func holdCopies(s *DurableStore) (entered, release chan struct{}) {
	entered, release = make(chan struct{}), make(chan struct{})
	var once sync.Once
	s.hold = func() {
		once.Do(func() { close(entered) })
		<-release
	}
	return entered, release
}

// sealNow seals the WAL and starts the copy without waiting for it.
func sealNow(t *testing.T, s *DurableStore) {
	t.Helper()
	s.mu.Lock()
	err := s.seal()
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
}

// rowsOf returns every row of s as table/key → value.
func rowsOf(t *testing.T, s *DurableStore) map[string]string {
	t.Helper()
	rows, err := s.Rows()
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, m := range rows {
		out[m.Table+"/"+m.Key] = string(m.Value)
	}
	return out
}

func fileNames(t *testing.T, dir string) []string {
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

// TestFailingCompactionSealsNoSegmentPerWrite: while a compaction's copy keeps
// failing, the writes after it seal no segment each, and do not each retry
// the copy: it restarts over the segments already sealed, once the WAL
// written since outweighs the snapshot again. Once the failure clears, the
// next compaction leaves only the snapshot and the WAL, and a reopen reads
// back every row byte-exact.
func TestFailingCompactionSealsNoSegmentPerWrite(t *testing.T) {
	dir := t.TempDir()
	blocked := filepath.Join(dir, snapshotFile+".tmp")
	if err := os.Mkdir(blocked, 0o755); err != nil { // no snapshot can be written
		t.Fatal(err)
	}
	s, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("t", "first", []byte("row")); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err == nil {
		t.Fatal("Compact succeeded onto a blocked snapshot")
	}
	var copies atomic.Int32
	s.hold = func() { copies.Add(1) }
	value := bytes.Repeat([]byte("v"), 32<<10) // 100 puts pass the compaction threshold three times
	for i := 0; i < 100; i++ {
		if err := s.Put("t", key(i), value); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		s.lockIdle() // the copy a write started has failed before the next
		s.mu.Unlock()
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "wal.*.gob")); len(segs) > 2 {
		t.Errorf("100 writes after a failed compaction left %d sealed segments, want at most 2", len(segs))
	}
	if n := copies.Load(); n < 1 || n > 8 {
		t.Errorf("100 writes of 3.2 MB in all ran %d copies, want the retry and then a restart per MB, not a copy per write", n)
	}

	if err := os.Remove(blocked); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("the compaction after the failure cleared: %v", err)
	}
	if got := fileNames(t, dir); !reflect.DeepEqual(got, []string{snapshotFile, walFile}) {
		t.Errorf("the compaction left %v, want only %s and %s", got, snapshotFile, walFile)
	}
	want := rowsOf(t, s)
	if len(want) != 101 {
		t.Fatalf("%d rows, want 101", len(want))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := rowsOf(t, re); !maps.Equal(got, want) {
		t.Errorf("reopened with %d rows, not the %d written", len(got), len(want))
	}
}

// TestDurableCompactionBesideWrites: while a compaction's copy is held, a
// write through the feed the runtime stacks over the durable store
// completes, is read back and is fed; the copy then publishes, and the
// directory reopens to every write.
func TestDurableCompactionBesideWrites(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	entered, release := holdCopies(s)
	fs, err := NewFeedStore(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, _, feed, err := fs.SnapshotAndFollow(64)
	if err != nil {
		t.Fatal(err)
	}
	value := bytes.Repeat([]byte("v"), 600<<10) // the second put passes the compaction threshold
	want := map[string]string{}
	for i := 0; ; i++ {
		if i == 10 {
			t.Fatal("10 puts of 600 KB started no compaction")
		}
		if err := fs.Put("t", key(i), value); err != nil {
			t.Fatal(err)
		}
		want["t/"+key(i)] = string(value)
		if s.WALRecords() == 0 { // sealed: the copy has started, or is about to
			break
		}
	}
	<-entered
	if err := fs.Put("t", "beside", []byte("the copy")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Delete("t", key(0)); err != nil {
		t.Fatal(err)
	}
	want["t/beside"] = "the copy"
	delete(want, "t/"+key(0))
	if v, ok, _ := fs.Get("t", "beside"); !ok || string(v) != "the copy" {
		t.Fatalf("a write beside the held copy reads back %q, %v", v, ok)
	}
	fed := collectFeed(t, feed, len(want)+2)
	if last := fed[len(fed)-1]; last.Op != 'D' || last.Key != key(0) || last.Seq != fs.Seq() {
		t.Fatalf("the feed's last row is %+v at seq %d", last, fs.Seq())
	}
	close(release)
	settle(s)
	if got := fileNames(t, dir); !reflect.DeepEqual(got, []string{snapshotFile, walFile}) {
		t.Fatalf("after the copy the directory holds %q", got)
	}
	fs.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := rowsOf(t, re); !maps.Equal(got, want) {
		t.Fatalf("reopened with %d rows, want %d", len(got), len(want))
	}
}

// TestDurableCloseDuringHeldCompaction: Close waits for a held copy and
// returns once it ends; the directory reopens to every write.
func TestDurableCloseDuringHeldCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	entered, release := holdCopies(s)
	for i := 0; i < 4; i++ {
		s.Put("t", key(i), []byte(val(i)))
	}
	sealNow(t, s)
	s.Put("t", key(4), []byte(val(4)))
	want := rowsOf(t, s)
	<-entered
	closed := make(chan error)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while the copy was held", err)
	default:
	}
	close(release)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	re, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := rowsOf(t, re); !maps.Equal(got, want) {
		t.Fatalf("reopened to %v, want %v", got, want)
	}
}

// TestDurableCompactionCrashImages reopens every directory a crash can
// leave around a compaction: the old snapshot with sealed segments and the
// live WAL, each cut at every byte, and the new snapshot published before
// the segments it covers were removed. Each reopens to a prefix of the
// acknowledged writes, byte exact, and compacts down to a snapshot and a
// WAL.
func TestDurableCompactionCrashImages(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "live")
	s, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	history := []map[string]string{{}}
	// sizes[i] is the size of the file write i landed in, once it has.
	var sizes []int64
	next := 0
	write := func(file string) {
		t.Helper()
		k := key(next % 5) // overwrites, and every fourth write a delete
		if next%4 == 3 {
			err = s.Delete("t", k)
		} else {
			err = s.Put("t", k, []byte(val(next)))
		}
		if err != nil {
			t.Fatal(err)
		}
		next++
		history = append(history, rowsOf(t, s))
		st, err := os.Stat(filepath.Join(dir, file))
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, st.Size())
	}
	for i := 0; i < 3; i++ {
		write(walFile)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	snap0, _ := os.ReadFile(filepath.Join(dir, snapshotFile))
	// starts[i] is the first write of segment i, and of the WAL after them.
	starts := []int{next, next + 3, next + 4, next + 7}
	for i := 0; i < 3; i++ {
		write(walFile)
	}
	// A copy that fails leaves its segment, and the next write compacts.
	blocked := filepath.Join(dir, snapshotFile+".tmp")
	os.Mkdir(blocked, 0o755)
	if err := s.Compact(); err == nil {
		t.Fatal("Compact succeeded onto a blocked snapshot")
	}
	os.Remove(blocked)
	entered, release := holdCopies(s)
	write("wal.2.gob")
	<-entered
	for i := 0; i < 3; i++ {
		write(walFile)
	}
	mid := filepath.Join(t.TempDir(), "mid")
	copyDir(t, dir, mid)
	if got := fileNames(t, mid); !reflect.DeepEqual(got, []string{snapshotFile, "wal.1.gob", "wal.2.gob", walFile}) {
		t.Fatalf("mid-copy the directory holds %q", got)
	}
	close(release)
	settle(s)
	snap1, _ := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	check := func(img, where string, want map[string]string) {
		t.Helper()
		re, err := OpenDurable(img)
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		if got := rowsOf(t, re); !maps.Equal(got, want) {
			t.Fatalf("%s: reopened to %v, want %v", where, got, want)
		}
		if err := re.Compact(); err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		re.Close()
		if got := fileNames(t, img); !reflect.DeepEqual(got, []string{snapshotFile, walFile}) {
			t.Fatalf("%s: compacted, the directory holds %q", where, got)
		}
		re, err = OpenDurable(img)
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		if got := rowsOf(t, re); !maps.Equal(got, want) {
			t.Fatalf("%s: compacted and reopened to %v, want %v", where, got, want)
		}
	}
	// The old snapshot, the segments before segment i whole, and segment i
	// cut at every byte as the last file: a crash while it was the WAL.
	files := []string{"wal.1.gob", "wal.2.gob", walFile}
	for i, name := range files {
		raw, err := os.ReadFile(filepath.Join(mid, name))
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut <= len(raw); cut++ {
			img := filepath.Join(t.TempDir(), "img")
			copyDir(t, mid, img)
			for _, later := range files[i+1:] {
				os.Remove(filepath.Join(img, later))
			}
			if err := os.WriteFile(filepath.Join(img, name), raw[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			in := starts[i+1] - starts[i]
			n := starts[i] + sort.Search(in, func(w int) bool { return sizes[starts[i]+w] > int64(cut) })
			check(img, fmt.Sprintf("%s cut at %d of %d", name, cut, len(raw)), history[n])
		}
	}
	if !bytes.Equal(snap0, mustRead(t, filepath.Join(mid, snapshotFile))) {
		t.Fatal("the mid-copy image does not hold the old snapshot")
	}
	// The new snapshot published, then the segments removed oldest first:
	// a crash before either removal, or between them.
	for _, gone := range [][]string{nil, {"wal.1.gob"}} {
		img := filepath.Join(t.TempDir(), "img")
		copyDir(t, mid, img)
		os.WriteFile(filepath.Join(img, snapshotFile), snap1, 0o644)
		for _, name := range gone {
			os.Remove(filepath.Join(img, name))
		}
		check(img, fmt.Sprintf("the new snapshot published, %q removed", gone), history[len(history)-1])
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}
