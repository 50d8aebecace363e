package repository

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"

	"bitdew/internal/codec"
)

// DirBackend stores content under a root directory, the way the original DR
// wraps a local file system, but in one append-only pack rather than a file
// per ref, so that a write creates no file. Content is written once, at the
// pack's tail, and never rewritten; a journal of (op, ref, offset, length)
// records, a codec.Log with no header, says which extent each ref holds.
// The index of extents lives in memory and is rebuilt at open by replaying
// the journal, dropping a torn last record the way db's WAL does.
//
// A generation is a pack and its journal, pack.N and journal.N, whose
// records name extents of pack.N. Once the packs' dead bytes outweigh the
// live ones (codec.Compactable), a seal opens generation N+1 for writes,
// and a goroutine copies the refs left in older ones into it (copy). Open
// replays every generation, oldest first. Nothing is fsynced: content
// survives the process being killed, not the machine losing power.
type DirBackend struct {
	root    string
	mu      sync.RWMutex
	g       *generation   // the current one; nil until the first write, and after Close
	old     []*generation // the older ones, oldest first
	journal *codec.Log    // the current generation's
	index   map[string]extent
	live    int64         // the bytes the index covers; the rest of the packs is dead
	stamp   uint64        // counts publications
	rec     []byte        // one journal record, built under mu
	copying chan struct{} // closed when the copy in flight ends; nil while none runs
	hold    func()        // if set, each copy calls it first: a test's seam
	// compactErr is the last compaction's failure, for Close to report.
	compactErr error
	closed     bool
}

// extent is the stretch of a pack a ref holds. stamp names the publication
// that made it and survives the copy into a newer generation.
type extent struct {
	g      *generation
	off, n int64
	stamp  uint64
}

// generation is one pack file. The backend holds a use of it while it is
// current, and so does every reader and writer that touches it outside the
// backend's lock; the last use to go closes it.
type generation struct {
	n    uint64
	f    *os.File
	tail int64 // where the next region is reserved; guarded by DirBackend.mu
	uses atomic.Int32
}

func newGeneration(n uint64, f *os.File, tail int64) *generation {
	g := &generation{n: n, f: f, tail: tail}
	g.uses.Store(1)
	return g
}

func (g *generation) release() {
	if g.uses.Add(-1) == 0 {
		g.f.Close()
	}
}

var errClosed = errors.New("repository: backend closed")

// NewDirBackend creates (if needed) and opens a directory. One in the
// layout of earlier builds, a file per ref, is refused.
func NewDirBackend(root string) (*DirBackend, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("repository: %w", err)
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("repository: %w", err)
	}
	var gens []uint64 // those with a journal
	for _, e := range entries {
		kind, n, ok := packName(e.Name())
		if !ok {
			return nil, fmt.Errorf("repository: %s holds %q, which is not part of a content pack: "+
				"a directory written by an earlier build, a file per ref, cannot be opened; start from an empty one",
				root, e.Name())
		}
		if kind == "journal" {
			gens = append(gens, n)
		}
	}
	slices.Sort(gens)
	b := &DirBackend{root: root, index: make(map[string]extent)}
	for _, e := range entries {
		// What a seal or a removal cut short left.
		if kind, n, _ := packName(e.Name()); kind == "tmp" || kind == "pack" && !slices.Contains(gens, n) {
			err = errors.Join(err, os.Remove(filepath.Join(root, e.Name())))
		}
	}
	for i := 0; i < len(gens) && err == nil; i++ {
		err = b.load(gens[i])
	}
	if err == nil {
		err = b.dropOld()
	}
	if err != nil {
		b.Close()
		return nil, fmt.Errorf("repository: %w", err)
	}
	if len(b.old) > 0 {
		b.startCopy()
	}
	return b, nil
}

// packName parses the name of a pack, a journal or a journal being written.
func packName(name string) (kind string, gen uint64, ok bool) {
	kind, num, _ := strings.Cut(name, ".")
	if rest, tmp := strings.CutSuffix(num, ".tmp"); tmp && kind == "journal" {
		kind, num = "tmp", rest
	}
	gen, err := strconv.ParseUint(num, 10, 64)
	return kind, gen, err == nil && gen > 0 && (kind == "pack" || kind == "journal" || kind == "tmp")
}

func (b *DirBackend) file(kind string, gen uint64) string {
	return filepath.Join(b.root, kind+"."+strconv.FormatUint(gen, 10))
}

// load opens generation gen as the current one and replays its journal.
func (b *DirBackend) load(gen uint64) error {
	pack, err := os.OpenFile(b.file("pack", gen), os.O_RDWR, 0)
	if err != nil {
		return err
	}
	st, err := pack.Stat()
	if err != nil {
		pack.Close()
		return err
	}
	if b.g != nil {
		b.journal.Close()
		b.old = append(b.old, b.g)
	}
	b.g = newGeneration(gen, pack, st.Size())
	b.journal, err = codec.OpenLog(b.file("journal", gen), "", b.replay)
	return err
}

// appendRecord frames one journal record: the op, the extent's offset and
// length, and the ref.
func appendRecord(b []byte, op byte, ref string, off, n int64) []byte {
	return codec.AppendFrame(b, func(b []byte) []byte {
		b = binary.AppendUvarint(append(b, op), uint64(off))
		return append(binary.AppendUvarint(b, uint64(n)), ref...)
	})
}

// replay applies one journal record to the index. A record that is
// malformed or names an extent the pack does not hold ends the journal's
// good prefix.
func (b *DirBackend) replay(body []byte) (bool, error) {
	off, k := binary.Uvarint(body[1:])
	n, l := binary.Uvarint(body[1+max(k, 0):])
	ref := string(body[1+max(k, 0)+max(l, 0):])
	if k <= 0 || l <= 0 || checkRef(ref) != nil {
		return false, nil
	}
	if body[0] == 'D' {
		b.drop(ref)
	} else if size := uint64(b.g.tail); body[0] != 'P' || off > size || n > size-off {
		return false, nil
	} else {
		b.set(ref, extent{g: b.g, off: int64(off), n: int64(n)})
	}
	return true, nil
}

// set and drop change the index, and the live count with it. A new
// publication gets the next stamp; a copy keeps the one it had.
func (b *DirBackend) set(ref string, e extent) {
	if e.stamp == 0 {
		b.stamp++
		e.stamp = b.stamp
	}
	b.live += e.n - b.index[ref].n
	b.index[ref] = e
}

func (b *DirBackend) drop(ref string) {
	b.live -= b.index[ref].n
	delete(b.index, ref)
}

// checkRef refuses the refs that name the root and its parent on every
// protocol's path (/data/.. is not a datum).
func checkRef(ref string) error {
	if ref == "" || ref == "." || ref == ".." {
		return fmt.Errorf("%w: %q is not a ref", ErrNoContent, ref)
	}
	return nil
}

// lookup returns ref's extent. b.mu is held.
func (b *DirBackend) lookup(ref string) (extent, error) {
	e, ok := b.index[ref]
	if !ok {
		return e, fmt.Errorf("%w: %s", ErrNoContent, ref)
	}
	return e, nil
}

// next makes generation n, its pack and its journal, empty. On failure it
// leaves neither.
func (b *DirBackend) next(n uint64) (*generation, *codec.Log, error) {
	pack, err := os.OpenFile(b.file("pack", n), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, nil, err
	}
	journal, err := codec.NextLog(b.file("journal", n), "", false, func(*bufio.Writer) error { return nil })
	if err != nil {
		pack.Close()
		return nil, nil, errors.Join(err, os.Remove(pack.Name()))
	}
	return newGeneration(n, pack, 0), journal, nil
}

// current returns the generation writes land in, and creates the first one
// on the first write, so that a backend nothing was written to leaves its
// directory empty. b.mu is held.
func (b *DirBackend) current() (*generation, error) {
	if b.g != nil {
		return b.g, nil
	}
	if b.closed {
		return nil, errClosed
	}
	g, journal, err := b.next(1)
	if err != nil {
		return nil, fmt.Errorf("repository: %w", err)
	}
	b.g, b.journal = g, journal
	return g, nil
}

// record journals one publication, in the current generation, or one
// tombstone and applies it to the index, then starts a compaction if the
// packs are mostly dead; a failed one fails no write, is kept for Close,
// and the next write tries again. b.mu is held.
func (b *DirBackend) record(op byte, ref string, e extent) error {
	b.rec = appendRecord(b.rec[:0], op, ref, e.off, e.n)
	if err := b.journal.Append(b.rec); err != nil {
		return fmt.Errorf("repository: journal: %w", err)
	}
	if op == 'D' {
		b.drop(ref)
	} else {
		e.g = b.g
		b.set(ref, e)
	}
	switch {
	case b.copying != nil:
	case len(b.old) > 0: // what a failed copy left
		b.startCopy()
	case codec.Compactable(b.g.tail-b.live, b.live):
		b.compactErr = b.seal()
	}
	return nil
}

// seal makes generation N+1 the current one, and starts the copy. b.mu is
// held, and no copy runs.
func (b *DirBackend) seal() error {
	g, journal, err := b.next(b.g.n + 1)
	if err != nil {
		return fmt.Errorf("repository: compacting the pack: %w", err)
	}
	b.journal.Close()
	b.old, b.g, b.journal = append(b.old, b.g), g, journal
	b.startCopy()
	return nil
}

func (b *DirBackend) startCopy() {
	b.copying = make(chan struct{})
	go b.copy(b.copying)
}

// copy moves each ref left in an older generation to the current one
// through one buffer, off the lock, and re-publishes it there with its
// stamp, unless a write or a delete changed it meanwhile. Then no ref lies
// in the older generations, and dropOld removes them. It allocates the
// same whatever the number of live refs, and closes done at its end.
func (b *DirBackend) copy(done chan struct{}) {
	defer close(done)
	if b.hold != nil {
		b.hold()
	}
	buf := make([]byte, 16<<10)
	b.mu.Lock()
	defer b.mu.Unlock()
	var err error
	// The map changes between two steps of the range, under the lock: a ref
	// published meanwhile is current, and one left behind is met once.
	for ref, e := range b.index {
		if err != nil || b.closed {
			break
		}
		if e.g == b.g {
			continue
		}
		g, off := b.g, b.g.tail
		g.tail += e.n
		b.mu.Unlock()
		for at := int64(0); at < e.n && err == nil; at += int64(len(buf)) {
			chunk := buf[:min(e.n-at, int64(len(buf)))]
			if _, err = e.g.f.ReadAt(chunk, e.off+at); err == nil {
				_, err = g.f.WriteAt(chunk, off+at)
			}
		}
		b.mu.Lock()
		if cur, ok := b.index[ref]; err == nil && !b.closed && ok && cur.stamp == e.stamp {
			err = b.record('P', ref, extent{off: off, n: e.n, stamp: e.stamp})
		}
	}
	if err == nil && !b.closed {
		err = b.dropOld()
	}
	if err != nil {
		err = fmt.Errorf("repository: compacting the pack: %w", err)
	}
	b.compactErr, b.copying = err, nil
}

// dropOld removes the older generations that no ref lies in, oldest
// first, up to the first one that a ref does: a tombstone in a generation
// matters only while an older one is left. b.mu is held.
func (b *DirBackend) dropOld() error {
	for len(b.old) > 0 {
		old := b.old[0]
		for _, e := range b.index {
			if e.g == old {
				return nil
			}
		}
		if err := errors.Join(os.Remove(b.file("journal", old.n)), os.Remove(old.f.Name())); err != nil {
			return err
		}
		b.old = b.old[1:]
		old.release()
	}
	return nil
}

// lockIdle locks b.mu once no copy runs.
func (b *DirBackend) lockIdle() {
	b.mu.Lock()
	for c := b.copying; c != nil; c = b.copying {
		b.mu.Unlock()
		<-c
		b.mu.Lock()
	}
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

// Append extends ref in place when its extent ends at the pack's tail, and
// otherwise copies it to the tail first.
func (b *DirBackend) Append(ref string, chunk []byte) error {
	if err := checkRef(ref); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	w := &packWriter{b: b, ref: ref}
	if e, ok := b.index[ref]; ok {
		w.adopt(e)
	}
	defer w.Close()
	w.want = w.n + int64(len(chunk))
	if err := w.grow(int64(len(chunk))); err != nil {
		return err
	}
	if _, err := w.g.f.WriteAt(chunk, w.off+w.n); err != nil {
		return err
	}
	w.n += int64(len(chunk))
	return w.publishLocked()
}

// OpenWriter reserves the announced size at the pack's tail on the first
// byte and writes there without the lock. A resume extends the ref's
// extent in place when it ends at the tail, and otherwise copies it to a
// region of its own there; it publishes, and journals, every chunk.
func (b *DirBackend) OpenWriter(ref string, off, size int64) (Writer, error) {
	if err := checkRef(ref); err != nil {
		return nil, err
	}
	w := &packWriter{b: b, ref: ref, want: size}
	if off == 0 {
		return w, nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.index[ref]
	if !ok || e.n != off {
		return nil, offsetError(ref, off, e.n)
	}
	w.adopt(e)
	w.resume = true
	return w, nil
}

// packWriter is one write into a DirBackend: a region of a pack, filled
// from its start, and a use of that pack.
type packWriter struct {
	b   *DirBackend
	ref string
	g   *generation // nil until the first byte is reserved
	off int64       // where the region starts in g
	n   int64       // the bytes landed in it
	cap int64       // the bytes reserved for it
	// want is the announced final size, below n when unknown.
	want int64
	// resume publishes every chunk, over stored: the extent the ref must
	// still hold, or the resume would undo what replaced it.
	resume bool
	stored extent
}

// adopt makes the writer's region ref's extent e. b.mu is held.
func (w *packWriter) adopt(e extent) {
	e.g.uses.Add(1)
	w.g, w.off, w.n, w.cap, w.stored = e.g, e.off, e.n, e.n, e
}

// grow makes room for need more bytes: in place when the region ends at the
// current pack's tail, else in a region of its own at the tail, with what
// landed copied over. b.mu is held.
func (w *packWriter) grow(need int64) error {
	g, err := w.b.current()
	if err != nil {
		return err
	}
	size := w.n + need
	if w.want >= size {
		size = min(w.want, size+maxReserve)
	} else {
		size = max(size, 2*w.cap)
	}
	if w.g == g && w.off+w.cap == g.tail {
		g.tail = w.off + size
	} else {
		off := g.tail
		g.tail += size
		if w.n > 0 {
			if _, err := io.Copy(io.NewOffsetWriter(g.f, off), io.NewSectionReader(w.g.f, w.off, w.n)); err != nil {
				return err
			}
		}
		g.uses.Add(1)
		w.Close()
		w.g, w.off = g, off
	}
	w.cap = size
	return nil
}

func (w *packWriter) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if w.n+int64(len(p)) > w.cap {
		w.b.mu.Lock()
		err := w.grow(int64(len(p)))
		w.b.mu.Unlock()
		if err != nil {
			return 0, err
		}
	}
	if _, err := w.g.f.WriteAt(p, w.off+w.n); err != nil {
		return 0, err
	}
	w.n += int64(len(p))
	if w.resume {
		if err := w.publish(); err != nil {
			return 0, err
		}
	}
	return len(p), nil
}

// ReadFrom copies r into the region through a buffer of io.Copy's 32 KiB,
// or of what is left of the announced size if that is less, so that a
// small datum does not pay for a large one's.
func (w *packWriter) ReadFrom(r io.Reader) (int64, error) {
	chunk := int64(32 << 10)
	if w.want >= w.n {
		chunk = min(max(w.want-w.n, 1), chunk)
	}
	return io.CopyBuffer(struct{ io.Writer }{w}, r, make([]byte, chunk))
}

func (w *packWriter) publish() error {
	w.b.mu.Lock()
	defer w.b.mu.Unlock()
	return w.publishLocked()
}

// publishLocked makes what landed the ref's content and journals it; a
// region a seal left in an older pack is copied over first. b.mu is held.
func (w *packWriter) publishLocked() error {
	b := w.b
	if cur, ok := b.index[w.ref]; w.resume && (!ok || cur.stamp != w.stored.stamp) {
		return fmt.Errorf("repository: %s changed while it was being resumed", w.ref)
	}
	if w.g == nil || w.g != b.g {
		if err := w.grow(0); err != nil {
			return err
		}
	}
	if err := b.record('P', w.ref, extent{off: w.off, n: w.n}); err != nil {
		return err
	}
	w.stored = b.index[w.ref]
	return nil
}

// Commit publishes a whole-content write; a resume published every chunk.
func (w *packWriter) Commit() error {
	if w.resume {
		return nil
	}
	return w.publish()
}

// Close lets go of the writer's pack. What it reserved and did not publish
// is dead space, for a compaction to drop.
func (w *packWriter) Close() error {
	if w.g != nil {
		w.g.release()
		w.g = nil
	}
	return nil
}

// OpenReader returns a reader of ref's extent, with a use of the pack it
// lies in: a compaction meanwhile does not take it away.
func (b *DirBackend) OpenReader(ref string) (Reader, int64, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	e, err := b.lookup(ref)
	if err != nil {
		return nil, 0, err
	}
	e.g.uses.Add(1)
	return &packReader{SectionReader: *io.NewSectionReader(e.g.f, e.off, e.n), g: e.g}, e.n, nil
}

func (b *DirBackend) Get(ref string) ([]byte, error) { return b.GetRange(ref, 0, math.MaxInt64) }

// GetRange reads what it returns in one pread.
func (b *DirBackend) GetRange(ref string, off, n int64) ([]byte, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	e, err := b.lookup(ref)
	if err == nil && (off < 0 || n < 0 || off > e.n) {
		err = fmt.Errorf("repository: range [%d,+%d) out of bounds for %s (len %d)", off, n, ref, e.n)
	}
	if err != nil {
		return nil, err
	}
	buf := make([]byte, min(n, e.n-off))
	if _, err := e.g.f.ReadAt(buf, e.off+off); err != nil {
		return nil, err
	}
	return buf, nil
}

func (b *DirBackend) Size(ref string) (int64, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	e, err := b.lookup(ref)
	return e.n, err
}

// Delete journals a tombstone.
func (b *DirBackend) Delete(ref string) error {
	if err := checkRef(ref); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return errClosed
	}
	if _, ok := b.index[ref]; !ok {
		return nil
	}
	return b.record('D', ref, extent{})
}

func (b *DirBackend) Refs() ([]string, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]string, 0, len(b.index))
	for ref := range b.index {
		out = append(out, ref)
	}
	sort.Strings(out)
	return out, nil
}

// Close stops a copy in flight, releases the packs and the journal, and
// reports a failed compaction that no later one repaired. Readers still
// open keep their pack until they close. Writes after Close fail.
func (b *DirBackend) Close() error {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.lockIdle()
	defer b.mu.Unlock()
	b.index = nil
	if b.g == nil {
		return nil
	}
	for _, g := range append(b.old, b.g) {
		g.release()
	}
	b.g, b.old = nil, nil
	if b.journal == nil {
		return b.compactErr
	}
	return errors.Join(b.compactErr, b.journal.Close())
}

// packReader reads one extent of a pack, which nothing writes again.
type packReader struct {
	io.SectionReader
	g *generation
}

// WriteTo sends the rest of the extent. To a descriptor, a socket or a
// file, it leaves by sendfile from the pack at an explicit offset, through
// no buffer of the process's; to anything else it is copied through one no
// larger than itself.
func (r *packReader) WriteTo(w io.Writer) (int64, error) {
	start, _ := r.Seek(0, io.SeekCurrent)
	if sc, ok := w.(syscall.Conn); ok && start < r.Size() {
		if raw, err := sc.SyscallConn(); err == nil {
			pos, serr := start, error(nil)
			if err = raw.Write(func(fd uintptr) bool {
				pos, serr = r.sendfile(int(fd), pos)
				return serr != syscall.EAGAIN
			}); err == nil {
				err = serr
			}
			// A descriptor sendfile cannot write to takes the copy below.
			if pos > start || err != syscall.EINVAL && err != syscall.ENOSYS {
				r.Seek(pos, io.SeekStart)
				return pos - start, err
			}
		}
	}
	buf := make([]byte, max(min(r.Size()-start, 32<<10), 1))
	return io.CopyBuffer(w, struct{ io.Reader }{&r.SectionReader}, buf)
}

// sendfile sends the extent from pos on to fd and returns where it got to.
func (r *packReader) sendfile(fd int, pos int64) (int64, error) {
	_, off, n := r.Outer()
	for pos < n {
		at := off + pos
		m, err := syscall.Sendfile(fd, int(r.g.f.Fd()), &at, int(min(n-pos, 1<<30)))
		pos += int64(max(m, 0))
		if err == nil && m == 0 {
			err = io.ErrUnexpectedEOF
		}
		if err != nil && err != syscall.EINTR {
			return pos, err
		}
	}
	return pos, nil
}

func (r *packReader) Close() error {
	if r.g != nil {
		r.g.release()
		r.g = nil
	}
	return nil
}
