// Package repository implements BitDew's Data Repository service (DR,
// paper §3.4.2): the interface between the data space and persistent
// storage, plus the remote-access descriptions (Locators) that let other
// nodes fetch permanent copies out-of-band. The DR wraps a storage Backend
// the way the original wraps a legacy file server or local file system, so
// BitDew can be mapped onto an existing infrastructure.
package repository

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// ErrNoContent is returned when a ref has no stored content.
var ErrNoContent = errors.New("repository: no content")

// Backend is persistent content storage addressed by reference strings
// (BitDew uses data UIDs as refs). Backends must support random-access
// reads and append-style writes so transfer protocols can resume
// interrupted transfers at an offset.
type Backend interface {
	// Put stores content under ref, replacing any previous content.
	Put(ref string, content []byte) error
	// Append extends ref's content; used by resuming receivers. Appending
	// to an absent ref creates it.
	Append(ref string, chunk []byte) error
	// Get returns the full content of ref.
	Get(ref string) ([]byte, error)
	// GetRange returns up to n bytes of ref starting at off. Fewer bytes
	// are returned only at end of content.
	GetRange(ref string, off, n int64) ([]byte, error)
	// Size returns the stored length of ref, or ErrNoContent.
	Size(ref string) (int64, error)
	// Delete removes ref; deleting an absent ref is not an error.
	Delete(ref string) error
	// Refs lists stored references in sorted order.
	Refs() ([]string, error)
}

// MemBackend stores content in memory; it is the reservoir-host cache of
// the prototype and the default backend in tests and simulations.
//
// The bytes of a stored slice are never written again: Put and a committed
// whole-content write store a new slice, Append and a resume only fill
// capacity no stored slice covers yet. That is what lets OpenReader serve
// the stored slice itself, without a copy.
type MemBackend struct {
	mu      sync.RWMutex
	content map[string][]byte
}

// NewMemBackend returns an empty in-memory backend.
func NewMemBackend() *MemBackend {
	return &MemBackend{content: make(map[string][]byte)}
}

func (b *MemBackend) Put(ref string, content []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.content[ref] = append([]byte(nil), content...)
	return nil
}

func (b *MemBackend) Append(ref string, chunk []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.content[ref] = append(b.content[ref], chunk...)
	return nil
}

func (b *MemBackend) Get(ref string) ([]byte, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	c, ok := b.content[ref]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoContent, ref)
	}
	return append([]byte(nil), c...), nil
}

func (b *MemBackend) GetRange(ref string, off, n int64) ([]byte, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	c, ok := b.content[ref]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoContent, ref)
	}
	if off < 0 || off > int64(len(c)) {
		return nil, fmt.Errorf("repository: range [%d,+%d) out of bounds for %s (len %d)", off, n, ref, len(c))
	}
	end := off + n
	if end > int64(len(c)) {
		end = int64(len(c))
	}
	return append([]byte(nil), c[off:end]...), nil
}

func (b *MemBackend) Size(ref string) (int64, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	c, ok := b.content[ref]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoContent, ref)
	}
	return int64(len(c)), nil
}

// OpenReader serves ref straight from its stored slice.
func (b *MemBackend) OpenReader(ref string) (Reader, int64, error) {
	b.mu.RLock()
	c, ok := b.content[ref]
	b.mu.RUnlock()
	if !ok {
		return nil, 0, fmt.Errorf("%w: %s", ErrNoContent, ref)
	}
	return sliceReader{bytes.NewReader(c)}, int64(len(c)), nil
}

// OpenWriter reserves the announced size once and lands the stream in it.
// A resume copies the stored prefix into a reservation of its own — the
// stored slice may be some reader's snapshot with no room behind it — and
// publishes a longer slice of that reservation after every chunk.
func (b *MemBackend) OpenWriter(ref string, off, size int64) (Writer, error) {
	w := &memWriter{b: b, ref: ref}
	if off == 0 {
		w.buf = reserve(nil, size)
		return w, nil
	}
	b.mu.RLock()
	w.stored = b.content[ref]
	b.mu.RUnlock()
	if int64(len(w.stored)) != off {
		return nil, offsetError(ref, off, int64(len(w.stored)))
	}
	w.buf = reserve(w.stored, size)
	w.landed = w.extend
	return w, nil
}

// memWriter is one streamed write into a MemBackend.
type memWriter struct {
	reserved
	b   *MemBackend
	ref string
	// stored is, on a resume, the slice the ref must still hold when the
	// next chunk is published: anything else means the content was put,
	// appended or deleted meanwhile, and extending it would undo that.
	stored []byte
}

// store publishes buf with its capacity clipped, so that no append through
// the stored slice can reach the reservation behind it.
func (w *memWriter) store(buf []byte) {
	w.stored = buf[:len(buf):len(buf)]
	w.b.content[w.ref] = w.stored
}

func (w *memWriter) extend(buf []byte) error {
	w.b.mu.Lock()
	defer w.b.mu.Unlock()
	cur := w.b.content[w.ref]
	if len(cur) != len(w.stored) || &cur[0] != &w.stored[0] {
		return fmt.Errorf("repository: %s changed while it was being resumed", w.ref)
	}
	w.store(buf)
	return nil
}

func (w *memWriter) Commit() error {
	if w.landed == nil {
		w.b.mu.Lock()
		w.store(w.buf)
		w.b.mu.Unlock()
	}
	return nil
}

func (w *memWriter) Close() error { return nil }

func (b *MemBackend) Delete(ref string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.content, ref)
	return nil
}

func (b *MemBackend) Refs() ([]string, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]string, 0, len(b.content))
	for r := range b.content {
		out = append(out, r)
	}
	sort.Strings(out)
	return out, nil
}

// DirBackend stores each ref as a file under a root directory, the way the
// original DR wraps a local file system. Refs are sanitised into flat file
// names to keep traversal out.
type DirBackend struct {
	root   string
	mu     sync.RWMutex
	serial atomic.Uint64 // names the temporary files of whole-content writes
}

// NewDirBackend creates (if needed) and wraps a directory.
func NewDirBackend(root string) (*DirBackend, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("repository: %w", err)
	}
	return &DirBackend{root: root}, nil
}

// path maps a ref to a safe file path.
func (b *DirBackend) path(ref string) string {
	safe := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		case r == '-' || r == '_' || r == '.':
			return r
		default:
			return '_'
		}
	}, ref)
	return filepath.Join(b.root, safe)
}

func (b *DirBackend) Put(ref string, content []byte) error {
	w, err := b.OpenWriter(ref, 0, int64(len(content)))
	if err != nil {
		return err
	}
	defer w.Close()
	if _, err := w.Write(content); err != nil {
		return err
	}
	return w.Commit()
}

// OpenReader opens ref's file. Whole-content writes replace the file by
// rename, so the descriptor keeps reading the content it was opened on.
func (b *DirBackend) OpenReader(ref string) (Reader, int64, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	f, err := os.Open(b.path(ref))
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, fmt.Errorf("%w: %s", ErrNoContent, ref)
	}
	if err != nil {
		return nil, 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, st.Size(), nil
}

// tempMark separates a ref's file name from the serial number of the
// temporary file a whole-content write lands in. path never produces it,
// so a temporary file cannot collide with a ref, and Refs skips it.
const tempMark = "~"

// OpenWriter holds one descriptor for the whole write: on a temporary file
// that Commit renames over the ref, or, for a resume, on the ref's own file
// in append mode.
func (b *DirBackend) OpenWriter(ref string, off, size int64) (Writer, error) {
	path := b.path(ref)
	w := &fileWriter{chunk: 32 << 10}
	if size >= off {
		w.chunk = int(min(max(size-off, 1), 32<<10))
	}
	if off == 0 {
		// Truncating, not exclusive: a serial is used once per process, and
		// what a killed process left under it is garbage.
		tmp := path + tempMark + strconv.FormatUint(b.serial.Add(1), 10)
		f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return nil, err
		}
		w.File, w.publishAs = f, path
		return w, nil
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if errors.Is(err, os.ErrNotExist) {
		return nil, offsetError(ref, off, 0)
	}
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err == nil && st.Size() != off {
		err = offsetError(ref, off, st.Size())
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	w.File = f
	return w, nil
}

// fileWriter is one streamed write into a DirBackend; Write is the
// descriptor's own.
type fileWriter struct {
	*os.File
	// publishAs is where Commit renames a whole-content write's temporary
	// file to; empty on a resume, which writes the ref's file itself.
	publishAs string
	// chunk is the size of ReadFrom's copy buffer: io.Copy's own 32 KiB, or
	// what was announced if that is less, so that a small datum does not
	// pay for a large one's buffer.
	chunk  int
	closed bool
}

// ReadFrom copies r to the file. The descriptor's own ReadFrom would do the
// same through a buffer of 32 KiB whatever the content: its kernel-side
// copies need a bare file or socket, and r is an http body or a hashing tee.
func (w *fileWriter) ReadFrom(r io.Reader) (int64, error) {
	return io.CopyBuffer(struct{ io.Writer }{w.File}, r, make([]byte, w.chunk))
}

func (w *fileWriter) Commit() error { return w.finish(true) }
func (w *fileWriter) Close() error  { return w.finish(false) }

// finish closes the descriptor first, so that a failed write-back is
// reported before anything is published, then renames a whole-content
// write into place or removes it.
func (w *fileWriter) finish(publish bool) error {
	if w.closed {
		return nil
	}
	w.closed = true
	err := w.File.Close()
	if w.publishAs == "" {
		return err
	}
	if publish && err == nil {
		if err = os.Rename(w.Name(), w.publishAs); err == nil {
			return nil
		}
	}
	os.Remove(w.Name())
	return err
}

func (b *DirBackend) Append(ref string, chunk []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	f, err := os.OpenFile(b.path(ref), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.Write(chunk)
	return err
}

func (b *DirBackend) Get(ref string) ([]byte, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	c, err := os.ReadFile(b.path(ref))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrNoContent, ref)
	}
	return c, err
}

func (b *DirBackend) GetRange(ref string, off, n int64) ([]byte, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	f, err := os.Open(b.path(ref))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrNoContent, ref)
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if off < 0 || off > st.Size() {
		return nil, fmt.Errorf("repository: range [%d,+%d) out of bounds for %s (len %d)", off, n, ref, st.Size())
	}
	end := off + n
	if end > st.Size() {
		end = st.Size()
	}
	buf := make([]byte, end-off)
	if _, err := f.ReadAt(buf, off); err != nil && err != io.EOF {
		return nil, err
	}
	return buf, nil
}

func (b *DirBackend) Size(ref string) (int64, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	st, err := os.Stat(b.path(ref))
	if errors.Is(err, os.ErrNotExist) {
		return 0, fmt.Errorf("%w: %s", ErrNoContent, ref)
	}
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

func (b *DirBackend) Delete(ref string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	err := os.Remove(b.path(ref))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	return err
}

func (b *DirBackend) Refs() ([]string, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	entries, err := os.ReadDir(b.root)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && !strings.Contains(e.Name(), tempMark) {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}
