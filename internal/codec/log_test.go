package codec

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// frame is one record of the logs below, framed.
func frame(body string) []byte {
	return AppendFrame(nil, func(b []byte) []byte { return append(b, body...) })
}

// replayAll opens the log at path and returns it with the bodies it
// replayed.
func replayAll(t *testing.T, path, header string) (*Log, []string) {
	t.Helper()
	var bodies []string
	l, err := OpenLog(path, header, func(body []byte) (bool, error) {
		bodies = append(bodies, string(body))
		return true, nil
	})
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	return l, bodies
}

// sizeOf is the length of the file at path.
func sizeOf(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// writeLog writes a log at path whose first records are published by
// NextLog and whose others are appended, and returns the records and the
// log's length after each (bounds[0] is the header's).
func writeLog(t *testing.T, path, header string) (records []string, bounds []int64) {
	t.Helper()
	records = []string{"a", "second record", string(bytes.Repeat([]byte{0xff}, 300)), "d", "last"}
	l, err := NextLog(path, header, false, func(w *bufio.Writer) error {
		w.Write(frame(records[0]))
		_, err := w.Write(frame(records[1]))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	bounds = []int64{int64(len(header))}
	for _, r := range records[:2] {
		bounds = append(bounds, bounds[len(bounds)-1]+int64(len(frame(r))))
	}
	if l.Size() != bounds[2] {
		t.Fatalf("a new generation of two records is %d bytes long, want %d", l.Size(), bounds[2])
	}
	for _, r := range records[2:] {
		if err := l.Append(frame(r)); err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, l.Size())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := sizeOf(t, path); got != bounds[len(bounds)-1] {
		t.Fatalf("the log is %d bytes long, want %d", got, bounds[len(bounds)-1])
	}
	return records, bounds
}

// TestLogCutAtEveryByte cuts a log at every byte, with a header and
// without one, and reopens it: it replays exactly the records wholly below
// the cut, is cut back to them, and replays what is appended next.
func TestLogCutAtEveryByte(t *testing.T) {
	for _, header := range []string{"", "\x89test1\n"} {
		t.Run(fmt.Sprintf("header %q", header), func(t *testing.T) {
			master := filepath.Join(t.TempDir(), "log")
			records, bounds := writeLog(t, master, header)
			raw, err := os.ReadFile(master)
			if err != nil {
				t.Fatal(err)
			}
			for cut := range len(raw) + 1 {
				path := filepath.Join(t.TempDir(), "log")
				if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				want := 0
				for want+1 < len(bounds) && bounds[want+1] <= int64(cut) {
					want++
				}
				l, got := replayAll(t, path, header)
				if !slices.Equal(got, records[:want]) {
					t.Fatalf("cut at %d: replayed %q, want %q", cut, got, records[:want])
				}
				if size := sizeOf(t, path); size != bounds[want] || l.Size() != size {
					t.Fatalf("cut at %d: the log is %d bytes long (Size %d), want %d", cut, size, l.Size(), bounds[want])
				}
				if err := l.Append(frame("next")); err != nil {
					t.Fatal(err)
				}
				l.Close()
				l, got = replayAll(t, path, header)
				l.Close()
				if want := append(records[:want:want], "next"); !slices.Equal(got, want) {
					t.Fatalf("cut at %d, then an append: replayed %q, want %q", cut, got, want)
				}
			}
		})
	}
}

// TestLogFlippedCRC: a frame whose CRC does not hold ends the good prefix,
// and the open cuts it and what follows away.
func TestLogFlippedCRC(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	records, bounds := writeLog(t, path, "")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[bounds[2]+4] ^= 1 // the CRC of the third frame
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	l, got := replayAll(t, path, "")
	defer l.Close()
	if !slices.Equal(got, records[:2]) {
		t.Fatalf("replayed %q, want %q", got, records[:2])
	}
	if size := sizeOf(t, path); size != bounds[2] {
		t.Fatalf("the log is %d bytes long, want %d", size, bounds[2])
	}
}

// failingFile writes half of what it is given and then fails, while fail
// is set; Truncate fails too while cutFails is.
type failingFile struct {
	*os.File
	fail, cutFails bool
	writes         int
}

func (f *failingFile) Write(p []byte) (int, error) {
	f.writes++
	if !f.fail {
		return f.File.Write(p)
	}
	n, _ := f.File.Write(p[:len(p)/2])
	return n, errors.New("disk full")
}

func (f *failingFile) Truncate(size int64) error {
	if f.cutFails {
		return errors.New("disk gone")
	}
	return f.File.Truncate(size)
}

// openFailing opens a log holding records a and b, writing through a
// failingFile.
func openFailing(t *testing.T, path string) (*Log, *failingFile) {
	t.Helper()
	l, _ := replayAll(t, path, "")
	for _, r := range []string{"a", "b"} {
		if err := l.Append(frame(r)); err != nil {
			t.Fatal(err)
		}
	}
	f := &failingFile{File: l.f.(*os.File)}
	l.f = f
	return l, f
}

// TestLogFailedAppendIsCutBack: an append whose write fails half way is
// cut back, and the log goes on taking appends after it.
func TestLogFailedAppendIsCutBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, f := openFailing(t, path)
	before := l.Size()
	f.fail = true
	if err := l.Append(frame("torn")); err == nil {
		t.Fatal("an append whose write failed succeeded")
	}
	if size := sizeOf(t, path); size != before || l.Size() != before {
		t.Fatalf("after a failed append the log is %d bytes long (Size %d), want %d", size, l.Size(), before)
	}
	f.fail = false
	if err := l.Append(frame("c")); err != nil {
		t.Fatalf("an append after a failed one: %v", err)
	}
	l.Close()
	l, got := replayAll(t, path, "")
	l.Close()
	if want := []string{"a", "b", "c"}; !slices.Equal(got, want) {
		t.Fatalf("replayed %q, want %q", got, want)
	}
}

// TestLogFailedCutBackLatches: an append that fails and cannot be cut back
// breaks the log, which refuses every later append without writing; the
// torn frame it left is cut at the next open.
func TestLogFailedCutBackLatches(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, f := openFailing(t, path)
	f.fail, f.cutFails = true, true
	first := l.Append(frame("torn"))
	if first == nil {
		t.Fatal("an append whose write failed succeeded")
	}
	f.fail, f.cutFails = false, false
	for range 2 {
		if err := l.Append(frame("c")); err == nil || err.Error() != first.Error() {
			t.Fatalf("an append to a broken log = %v, want %v", err, first)
		}
	}
	if f.writes != 1 {
		t.Fatalf("a broken log wrote %d times, want the 1 that broke it", f.writes)
	}
	l.Close()
	l, got := replayAll(t, path, "")
	l.Close()
	if want := []string{"a", "b"}; !slices.Equal(got, want) {
		t.Fatalf("replayed %q, want %q", got, want)
	}
}
