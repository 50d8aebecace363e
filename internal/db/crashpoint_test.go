package db

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// Crash-point recovery matrix for DurableStore: a crash can truncate the
// WAL at ANY byte, not just at a record boundary, and can die between
// writing the snapshot temp file and publishing it. durable_test.go covers
// the happy paths and one torn tail; this file sweeps every truncation
// point of the last record (and, for a small store, of the whole log) and
// the partial-compaction leftovers, asserting the recovery contract at
// each: everything before the cut survives, the torn record is dropped,
// and the reopened store keeps accepting and persisting writes.

// buildWAL opens a store in dir, applies n sequential puts with
// compaction disabled, closes it, and returns the WAL size after each
// record (boundaries[i] = file size once records 0..i are appended).
func buildWAL(t *testing.T, dir string, n int) (boundaries []int64) {
	t.Helper()
	s, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	wal := filepath.Join(dir, "wal.gob")
	for i := 0; i < n; i++ {
		if err := s.Put("t", key(i), []byte(val(i))); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(wal)
		if err != nil {
			t.Fatal(err)
		}
		boundaries = append(boundaries, st.Size())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return boundaries
}

func key(i int) string { return fmt.Sprintf("key-%03d", i) }
func val(i int) string { return fmt.Sprintf("value-%03d", i) }

// copyDir clones the state directory so each crash point starts from the
// identical pre-crash image.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// recoverAt truncates the clone's WAL to cut bytes, reopens, and returns
// the recovered store (the caller closes it).
func recoverAt(t *testing.T, dir string, cut int64) *DurableStore {
	t.Helper()
	if err := os.Truncate(filepath.Join(dir, "wal.gob"), cut); err != nil {
		t.Fatal(err)
	}
	s, err := OpenDurable(dir)
	if err != nil {
		t.Fatalf("recovery at cut %d: %v", cut, err)
	}
	return s
}

// expectRecords asserts the store holds exactly records 0..n-1.
func expectRecords(t *testing.T, s *DurableStore, n int, cut int64) {
	t.Helper()
	if got := s.Len("t"); got != n {
		t.Fatalf("cut %d: recovered %d records, want %d", cut, got, n)
	}
	for i := 0; i < n; i++ {
		raw, ok, err := s.Get("t", key(i))
		if err != nil || !ok || string(raw) != val(i) {
			t.Fatalf("cut %d: record %d = %q, %v, %v", cut, i, raw, ok, err)
		}
	}
}

// TestTornWriteMatrixLastRecord truncates the WAL at EVERY byte boundary
// of the last record: each cut must recover all earlier records, drop the
// torn one (except the full-length cut, which keeps it), and leave a store
// that persists further writes across another clean restart.
func TestTornWriteMatrixLastRecord(t *testing.T) {
	const records = 5
	master := t.TempDir()
	boundaries := buildWAL(t, master, records)
	prevEnd := boundaries[records-2] // WAL size before the last record
	end := boundaries[records-1]
	if end <= prevEnd {
		t.Fatalf("last record occupies no bytes: %d..%d", prevEnd, end)
	}

	for cut := prevEnd; cut <= end; cut++ {
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("cut-%d", cut))
		copyDir(t, master, dir)
		s := recoverAt(t, dir, cut)

		want := records - 1
		if cut == end {
			want = records // nothing torn at full length
		}
		expectRecords(t, s, want, cut)

		// The recovered store must keep working: write one more record
		// (its own table, so the matrix count stays pure), close, reopen,
		// and find everything again.
		if err := s.Put("post", "post-crash", []byte("alive")); err != nil {
			t.Fatalf("cut %d: write after recovery: %v", cut, err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
		s2, err := OpenDurable(dir)
		if err != nil {
			t.Fatalf("cut %d: second recovery: %v", cut, err)
		}
		expectRecords(t, s2, want, cut)
		if raw, ok, err := s2.Get("post", "post-crash"); err != nil || !ok || string(raw) != "alive" {
			t.Fatalf("cut %d: post-crash record = %q, %v, %v", cut, raw, ok, err)
		}
		s2.Close()
	}
}

// TestTornWriteMatrixWholeLog sweeps every byte of a small WAL, not just
// the final record, pinning that recovery yields a clean prefix at every
// cut: exactly the records wholly contained below the cut, never a later
// record without an earlier one, never an error.
func TestTornWriteMatrixWholeLog(t *testing.T) {
	const records = 3
	master := t.TempDir()
	boundaries := buildWAL(t, master, records)
	end := boundaries[records-1]

	for cut := int64(0); cut <= end; cut++ {
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("cut-%d", cut))
		copyDir(t, master, dir)
		s := recoverAt(t, dir, cut)

		// The expected prefix: records whose boundary is at or below cut.
		want := 0
		for _, b := range boundaries {
			if b <= cut {
				want++
			}
		}
		expectRecords(t, s, want, cut)
		s.Close()
	}
}

// TestCrashDuringCompactionLeavesTmpIgnored simulates dying between
// writing snapshot.gob.tmp and the atomic rename: recovery must ignore the
// temp file — whatever garbage it holds — recover from the published
// snapshot + WAL, and the next compaction must replace the leftovers.
func TestCrashDuringCompactionLeavesTmpIgnored(t *testing.T) {
	dir := t.TempDir()
	buildWAL(t, dir, 4)

	for _, junk := range [][]byte{nil, []byte("garbage, not gob"), make([]byte, 1<<16)} {
		if err := os.WriteFile(filepath.Join(dir, "snapshot.gob.tmp"), junk, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenDurable(dir)
		if err != nil {
			t.Fatalf("recovery with %d-byte tmp snapshot: %v", len(junk), err)
		}
		expectRecords(t, s, 4, -1)
		// A fresh compaction must atomically supersede the leftover.
		if err := s.Compact(); err != nil {
			t.Fatalf("compaction over leftover tmp: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s2, err := OpenDurable(dir)
		if err != nil {
			t.Fatal(err)
		}
		expectRecords(t, s2, 4, -1)
		s2.Close()
	}
}

// TestTornSnapshotTailRecovers truncates the SNAPSHOT mid-record. A
// published snapshot should never be torn (it is fsynced before the
// rename), but recovery treats a torn snapshot tail like a torn WAL tail —
// the surviving prefix loads — rather than refusing to start.
func TestTornSnapshotTailRecovers(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := s.Put("t", key(i), []byte(val(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil { // everything moves into the snapshot
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	snap := filepath.Join(dir, "snapshot.gob")
	st, err := os.Stat(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(snap, st.Size()-1); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenDurable(dir)
	if err != nil {
		t.Fatalf("recovery from torn snapshot tail: %v", err)
	}
	defer s2.Close()
	if got := s2.Len("t"); got != 3 {
		t.Fatalf("torn snapshot recovered %d records, want 3 (last one torn off)", got)
	}
}
