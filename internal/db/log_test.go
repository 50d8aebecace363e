package db

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLogFormatPinned pins what a DurableStore writes: the header, then each
// record framed (length, CRC-32) around the codec blob of a Mutation. A
// silent change of format trips here instead of in somebody's state
// directory.
func TestLogFormatPinned(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("data", "uid-1", []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("data", "uid-2", []byte("beta")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("data", "uid-1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for file, want := range map[string]string{
		// The header, then a frame: length 0x17, CRC, the fingerprint of
		// Mutation, Seq 0, 'P', "data", "uid-1", "alpha".
		snapshotFile: "8962646c6f67310a17000000caa882820f8420df00500464617461057569642d3105616c706861",
		// The header, a put of uid-2, a delete of uid-1.
		walFile: "8962646c6f67310a16000000cec9163e0f8420df00500464617461057569642d320462657461120000009d4724150f8420df00440464617461057569642d3100",
	} {
		raw, err := os.ReadFile(filepath.Join(dir, file))
		if err != nil {
			t.Fatal(err)
		}
		if hex.EncodeToString(raw) != want {
			t.Errorf("%s is\n%x, want\n%s", file, raw, want)
		}
	}
}

// TestEarlierFormatLogIsRefused: a meta directory written by an earlier
// build, whose snapshot and WAL were gob streams, fails the open with an
// error naming the directory, and is left byte for byte as it was — a WAL
// of another format is never cut back as if it were torn.
func TestEarlierFormatLogIsRefused(t *testing.T) {
	files := map[string]string{ // put uid-1, compact, put uid-2, delete uid-1
		snapshotFile: "397f0301010977616c5265636f726401ff8000010401024f7001060001055461626c65010c0001034b6579010c00010556616c7565010a00000019ff80015001046461746101057569642d310105616c70686100",
		walFile:      "397f0301010977616c5265636f726401ff8000010401024f7001060001055461626c65010c0001034b6579010c00010556616c7565010a00000018ff80015001046461746101057569642d320104626574610012ff80014401046461746101057569642d3100",
	}
	dir := t.TempDir()
	for file, h := range files {
		raw, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, file), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, without := range []string{"", snapshotFile} {
		if without != "" {
			os.Remove(filepath.Join(dir, without))
			delete(files, without)
		}
		s, err := OpenDurable(dir)
		if err == nil {
			s.Close()
			t.Fatalf("without %q: an earlier build's directory opened", without)
		}
		if !strings.Contains(err.Error(), dir) {
			t.Errorf("without %q: the refusal does not name %s: %v", without, dir, err)
		}
		for file, h := range files {
			raw, err := os.ReadFile(filepath.Join(dir, file))
			if err != nil || hex.EncodeToString(raw) != h {
				t.Fatalf("without %q: %s changed to %x (%v)", without, file, raw, err)
			}
		}
	}
}

// TestDurableReadsDoNotWaitForScan: a catalog search scans a whole table,
// and while its callback runs, the shard's writes and reads go on.
func TestDurableReadsDoNotWaitForScan(t *testing.T) {
	s, err := OpenDurable(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put("t", "a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	inScan, release, scanned := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	go func() {
		scanned <- s.Scan("t", func(string, []byte) bool {
			close(inScan)
			<-release
			return false
		})
	}()
	<-inScan
	put, get := make(chan error, 1), make(chan []byte, 1)
	go func() { put <- s.Put("t", "b", []byte("2")) }()
	go func() { v, _, _ := s.Get("t", "a"); get <- v }()
	if err := <-put; err != nil {
		t.Fatalf("Put beside a Scan: %v", err)
	}
	if v := <-get; !bytes.Equal(v, []byte("1")) {
		t.Fatalf("Get beside a Scan = %q", v)
	}
	close(release)
	if err := <-scanned; err != nil {
		t.Fatal(err)
	}
}
