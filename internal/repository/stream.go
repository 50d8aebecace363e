package repository

import (
	"bytes"
	"errors"
	"fmt"
	"io"
)

// ErrOffset is returned by OpenWriter when a resume offset is not the
// stored size of the ref.
var ErrOffset = errors.New("repository: resume offset does not match stored size")

// Reader reads the content a ref held when it was opened. Content that is
// replaced or deleted afterwards stays readable through it; a resume that
// extends the ref in place may show up past the size OpenReader returned,
// so callers read exactly that many bytes.
type Reader interface {
	io.ReadSeeker
	io.ReaderAt
	io.Closer
}

// Writer stores one ref's content as it streams in. ReadFrom lands the
// source's bytes directly in the storage reserved for them, so handing a
// Writer to io.Copy costs no buffer in between.
type Writer interface {
	io.Writer
	io.ReaderFrom
	// Commit publishes a whole-content write, all of it at once; a resumed
	// write has nothing left to publish. It may be called after a failed
	// copy to keep what landed as the prefix a later resume extends.
	Commit() error
	// Close releases the writer. A whole-content write that was not
	// committed is discarded and the ref keeps its previous content.
	io.Closer
}

// Streamer is the optional streaming capability of a Backend: content moves
// in and out without a whole-content []byte changing hands. Callers do not
// assert it themselves; they go through OpenReader and OpenWriter, which
// fall back to the Backend methods for a backend that does not stream.
type Streamer interface {
	// OpenReader opens ref's content and returns it with its size.
	OpenReader(ref string) (Reader, int64, error)
	// OpenWriter opens ref for writing from off. At off zero the write is a
	// whole-content write: readers, Size and Get see the previous content
	// until Commit. A positive off must equal the stored size (ErrOffset
	// otherwise) and resumes in place: bytes extend the content, visible as
	// they land. size announces the final length, off included, and is
	// reserved once; a size below off means unknown.
	OpenWriter(ref string, off, size int64) (Writer, error)
}

// OpenReader opens ref's content on b and returns it with its size.
func OpenReader(b Backend, ref string) (Reader, int64, error) {
	if s, ok := b.(Streamer); ok {
		return s.OpenReader(ref)
	}
	content, err := b.Get(ref)
	if err != nil {
		return nil, 0, err
	}
	return sliceReader{bytes.NewReader(content)}, int64(len(content)), nil
}

// OpenWriter opens ref on b for writing from off, with the Streamer
// contract. On a backend that does not stream, a whole-content write is
// buffered and Put on Commit, and a resume Appends every chunk.
func OpenWriter(b Backend, ref string, off, size int64) (Writer, error) {
	if s, ok := b.(Streamer); ok {
		return s.OpenWriter(ref, off, size)
	}
	if off == 0 {
		return &putWriter{reserved: reserved{buf: reserve(nil, size)}, b: b, ref: ref}, nil
	}
	if cur, err := b.Size(ref); err != nil || cur != off {
		return nil, offsetError(ref, off, cur)
	}
	return appendWriter{b: b, ref: ref}, nil
}

func offsetError(ref string, off, stored int64) error {
	return fmt.Errorf("%w: %s at %d, stored %d", ErrOffset, ref, off, stored)
}

// sliceReader reads a content slice nobody writes to any more.
type sliceReader struct{ *bytes.Reader }

func (sliceReader) Close() error { return nil }

// maxReserve caps what an announced size reserves before a byte of it has
// arrived: the announcement comes off the wire, and a header must not be
// able to claim the process's memory. Content beyond it grows as it lands.
const maxReserve = 1 << 30

// reserve returns a buffer holding prefix with room for size bytes in all,
// or for a first read when size does not say.
func reserve(prefix []byte, size int64) []byte {
	n := int64(len(prefix))
	if size < n {
		size = n + 512
	}
	return append(make([]byte, 0, min(size, n+maxReserve)), prefix...)
}

// reserved is the one content-sized buffer of a hop. Write and ReadFrom
// land bytes in its tail and never touch the bytes already there.
type reserved struct {
	buf []byte
	// landed, when set, is called with the buffer after every chunk.
	landed func(buf []byte) error
	// probe takes the read that finds EOF once the reservation is full.
	probe [1]byte
}

func (t *reserved) Write(p []byte) (int, error) {
	t.buf = append(t.buf, p...)
	if t.landed != nil {
		if err := t.landed(t.buf); err != nil {
			return 0, err
		}
	}
	return len(p), nil
}

func (t *reserved) ReadFrom(r io.Reader) (n int64, err error) {
	for {
		var m int
		if spare := t.buf[len(t.buf):cap(t.buf)]; len(spare) > 0 {
			m, err = r.Read(spare)
			t.buf = t.buf[:len(t.buf)+m]
		} else {
			// Full. With an exact announcement all that is left to read
			// is EOF, and growing the buffer to read it would double it;
			// a byte that does come makes append grow it.
			m, err = r.Read(t.probe[:])
			t.buf = append(t.buf, t.probe[:m]...)
		}
		n += int64(m)
		if m > 0 && t.landed != nil {
			if lerr := t.landed(t.buf); lerr != nil {
				return n, lerr
			}
		}
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
	}
}

// putWriter is a whole-content write onto a backend that does not stream.
type putWriter struct {
	reserved
	b   Backend
	ref string
}

func (w *putWriter) Commit() error { return w.b.Put(w.ref, w.buf) }
func (w *putWriter) Close() error  { return nil }

// appendWriter is a resume onto a backend that does not stream.
type appendWriter struct {
	b   Backend
	ref string
}

func (w appendWriter) Write(p []byte) (int, error) {
	if err := w.b.Append(w.ref, p); err != nil {
		return 0, err
	}
	return len(p), nil
}

func (w appendWriter) ReadFrom(r io.Reader) (int64, error) {
	return io.Copy(struct{ io.Writer }{w}, r)
}

func (appendWriter) Commit() error { return nil }
func (appendWriter) Close() error  { return nil }
