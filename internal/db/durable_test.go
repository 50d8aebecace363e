package db

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// settle waits for the compaction's copy in flight, if any.
func settle(s *DurableStore) {
	s.lockIdle()
	s.mu.Unlock()
}

func TestDurableRecoversAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Put("t", fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete("t", "k3"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len("t") != 9 {
		t.Fatalf("recovered %d rows, want 9", re.Len("t"))
	}
	v, ok, err := re.Get("t", "k7")
	if err != nil || !ok || string(v) != "v7" {
		t.Fatalf("Get k7 = %q, %v, %v", v, ok, err)
	}
	if _, ok, _ := re.Get("t", "k3"); ok {
		t.Fatal("deleted key k3 survived recovery")
	}
}

func TestDurableCompactionRotatesWAL(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	// 48 puts of 32 KiB over 8 keys: 1.5 MiB through the WAL, 256 KiB live.
	value := bytes.Repeat([]byte("v"), 32<<10)
	const puts = 48
	for i := 0; i < puts; i++ {
		if err := s.Put("t", fmt.Sprintf("k%d", i%8), value); err != nil {
			t.Fatal(err)
		}
	}
	// The WAL's dead bytes passed 1 MiB and outweighed the empty snapshot
	// after 32 puts, so it was compacted once, and holds the 16 puts since.
	if n := s.WALRecords(); n != puts-32 {
		t.Fatalf("WAL holds %d records after auto-compaction, want %d", n, puts-32)
	}
	settle(s) // the snapshot is written beside the writes
	if fi, err := os.Stat(filepath.Join(dir, snapshotFile)); err != nil || fi.Size() < 8*32<<10 {
		t.Fatalf("snapshot missing or short after compaction: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len("t") != 8 {
		t.Fatalf("recovered %d rows, want 8", re.Len("t"))
	}
}

func TestDurableExplicitCompactAndRecover(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s.Put("t", fmt.Sprintf("k%d", i), []byte("v"))
	}
	if n := s.WALRecords(); n != 5 {
		t.Fatalf("WAL records = %d, want 5", n)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if n := s.WALRecords(); n != 0 {
		t.Fatalf("WAL records after Compact = %d, want 0", n)
	}
	s.Put("t", "post", []byte("after-compact"))
	s.Close()

	re, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len("t") != 6 {
		t.Fatalf("recovered %d rows, want 6", re.Len("t"))
	}
	if v, ok, _ := re.Get("t", "post"); !ok || string(v) != "after-compact" {
		t.Fatalf("post-compaction record lost: %q, %v", v, ok)
	}
}

func TestDurableToleratesTornWALTail(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("t", "safe", []byte("committed"))
	s.Put("t", "torn", []byte("this record will be cut"))
	s.Close()

	// Simulate a crash mid-append: truncate the WAL inside its last record.
	walPath := filepath.Join(dir, walFile)
	fi, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDurable(dir)
	if err != nil {
		t.Fatalf("recovery with torn tail failed: %v", err)
	}
	defer re.Close()
	if _, ok, _ := re.Get("t", "safe"); !ok {
		t.Fatal("committed record lost")
	}
	// The torn record is dropped, not resurrected.
	if _, ok, _ := re.Get("t", "torn"); ok {
		t.Fatal("torn record survived")
	}
	// And the store stays writable with a clean log.
	if err := re.Put("t", "next", []byte("v")); err != nil {
		t.Fatal(err)
	}
}

func TestDurableClosedOps(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := s.Put("t", "k", nil); err != ErrClosed {
		t.Fatalf("Put after Close = %v, want ErrClosed", err)
	}
	if err := s.Compact(); err != ErrClosed {
		t.Fatalf("Compact after Close = %v, want ErrClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double Close = %v", err)
	}
}
