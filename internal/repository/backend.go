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
	"sort"
	"sync"
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
	// Get returns the full content of ref. The result may be the stored
	// bytes themselves: callers read it and never write it.
	Get(ref string) ([]byte, error)
	// GetRange returns up to n bytes of ref starting at off, read-only like
	// Get's. Fewer bytes are returned only at end of content.
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
// capacity no stored slice covers yet. That is what lets Get, GetRange and
// OpenReader serve the stored slice itself, without a copy. Get and GetRange
// clip its capacity, so that a caller's append reallocates rather than
// writing into room a later Append fills.
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
	return c[:len(c):len(c)], nil
}

func (b *MemBackend) GetRange(ref string, off, n int64) ([]byte, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	c, ok := b.content[ref]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoContent, ref)
	}
	if off < 0 || n < 0 || off > int64(len(c)) {
		return nil, fmt.Errorf("repository: range [%d,+%d) out of bounds for %s (len %d)", off, n, ref, len(c))
	}
	end := off + min(n, int64(len(c))-off)
	return c[off:end:end], nil
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
