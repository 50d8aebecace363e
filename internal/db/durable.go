package db

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"bitdew/internal/codec"
)

// Default compaction policy of a DurableStore: compact once the WAL holds
// this many records (each Put/Delete is one record). Compaction cost is one
// full snapshot write, so the threshold trades recovery-replay length
// against snapshot churn.
const DefaultCompactEvery = 4096

const (
	snapshotFile = "snapshot.gob"
	walFile      = "wal.gob"

	// logHeader opens every log file. Its first byte cannot open a gob
	// stream, the format of earlier builds.
	logHeader = "\x89bdlog1\n"
)

// DurableStore is a RowStore whose state survives the process being
// killed: every mutation is appended to an on-disk write-ahead log before
// it is applied, and the log is periodically compacted by writing a full
// snapshot and rotating the log (the paper's §3.4–3.5 design, where all D*
// service meta-data lives in a relational database precisely so a service
// restart loses nothing). Only compaction and Close fsync.
//
// Layout inside the state directory, each file a log (ReadLog):
//
//	snapshot.gob   full state at the last compaction, as puts
//	wal.gob        mutations since the last compaction
//
// Open replays snapshot then WAL, and cuts the WAL back to the prefix that
// replayed: a record torn by a crash mid-append is dropped. All methods
// are safe for concurrent use; reads go to the RowStore and never wait for
// the log.
type DurableStore struct {
	mu  sync.Mutex // serialises the log: appends, compaction and Close
	mem *RowStore
	dir string

	wal     *os.File
	walSize int64  // the WAL's length, to cut a failed append back to
	walN    int    // records appended since the last compaction
	rec     []byte // one framed record, built under mu

	compactEvery    int
	compactInterval time.Duration
	stopCompact     chan struct{}
	compactWG       sync.WaitGroup

	// broken latches a WAL append that could not be cut back: mutations are
	// refused (reads and Close still work) so a damaged log is never
	// extended past the point recovery can trust.
	broken error
	closed bool
}

// DurableOption configures an OpenDurable call.
type DurableOption func(*DurableStore)

// WithCompactEvery sets the WAL record count that triggers an automatic
// compaction (0 keeps DefaultCompactEvery; negative disables count-based
// compaction).
func WithCompactEvery(n int) DurableOption {
	return func(s *DurableStore) { s.compactEvery = n }
}

// WithCompactInterval additionally compacts on a timer, so a mostly idle
// service still bounds its recovery-replay length.
func WithCompactInterval(d time.Duration) DurableOption {
	return func(s *DurableStore) { s.compactInterval = d }
}

// OpenDurable opens (creating if needed) the durable store rooted at dir
// and recovers its state: the last snapshot is replayed, then the WAL on
// top of it. A directory written by an earlier build is refused, and left
// as it is.
func OpenDurable(dir string, opts ...DurableOption) (*DurableStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("db: open durable: %w", err)
	}
	s := &DurableStore{
		mem:          NewRowStore(),
		dir:          dir,
		compactEvery: DefaultCompactEvery,
		stopCompact:  make(chan struct{}),
	}
	for _, o := range opts {
		o(s)
	}
	if s.compactEvery == 0 {
		s.compactEvery = DefaultCompactEvery
	}
	if _, _, err := s.replay(snapshotFile); err != nil {
		return nil, err
	}
	good, n, err := s.replay(walFile)
	if err != nil {
		return nil, err
	}
	// Cut what did not replay, so the next record does not follow a torn
	// one; a WAL cut inside its header starts again.
	wal, err := os.OpenFile(filepath.Join(dir, walFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("db: open wal: %w", err)
	}
	if err = wal.Truncate(good); err == nil && good == 0 {
		_, err = wal.WriteString(logHeader)
		good = int64(len(logHeader))
	}
	if err != nil {
		wal.Close()
		return nil, fmt.Errorf("db: open wal: %w", err)
	}
	s.wal, s.walSize, s.walN = wal, good, n
	if s.compactInterval > 0 {
		s.compactWG.Add(1)
		go s.compactLoop()
	}
	return s, nil
}

// replay applies the log in file name to the store, and returns the length
// of the prefix it applied and the records in it. A missing file is empty.
func (s *DurableStore) replay(name string) (good int64, n int, err error) {
	path := filepath.Join(s.dir, name)
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, 0, nil
	}
	var muts []Mutation
	var end int
	if err == nil {
		muts, end, err = ReadLog(raw)
	}
	if err != nil {
		return 0, 0, fmt.Errorf("db: recover %s: %w", path, err)
	}
	for i := range muts {
		if err := s.mem.apply(&muts[i]); err != nil {
			return 0, 0, err
		}
	}
	return int64(end), len(muts), nil
}

// ReadLog decodes a log: the header, then one frame (codec.AppendFrame)
// after another, each holding the codec blob of a Mutation. good is the
// length of the prefix that holds whole records; a frame cut short or
// failing its CRC ends it, and a log cut inside its header is empty, with
// a good prefix of 0. A log that does not open with the header, or a whole
// frame that does not hold a put or a delete, is an error: it was written
// by another build, not torn by a crash.
func ReadLog(raw []byte) (muts []Mutation, good int, err error) {
	if !bytes.HasPrefix(raw, []byte(logHeader)) {
		if bytes.HasPrefix([]byte(logHeader), raw) {
			return nil, 0, nil
		}
		return nil, 0, errors.New("not a log of this build: a state directory written by an earlier build cannot be opened; start from an empty one")
	}
	good = len(logHeader)
	for {
		body, n := codec.NextFrame(raw[good:])
		if n == 0 {
			return muts, good, nil
		}
		var m Mutation
		if err := codec.Unmarshal(body, &m); err != nil {
			return muts, good, fmt.Errorf("record %d: %w", len(muts)+1, err)
		}
		if m.Op != 'P' && m.Op != 'D' {
			return muts, good, fmt.Errorf("record %d: unknown op %q", len(muts)+1, m.Op)
		}
		muts = append(muts, m)
		good += n
	}
}

// appendRecord appends m to b as one log record.
func appendRecord(b []byte, m *Mutation) []byte {
	return codec.AppendFrame(b, func(b []byte) []byte {
		b, _ = codec.Append(b, m) // a Mutation always encodes
		return b
	})
}

func (s *DurableStore) compactLoop() {
	defer s.compactWG.Done()
	ticker := time.NewTicker(s.compactInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stopCompact:
			return
		case <-ticker.C:
			s.Compact()
		}
	}
}

// append writes one WAL record, then applies it to the in-memory state,
// and compacts when the WAL has grown past the threshold.
func (s *DurableStore) append(m Mutation) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.broken != nil {
		return s.broken
	}
	s.rec = appendRecord(s.rec[:0], &m)
	if _, err := s.wal.Write(s.rec); err != nil {
		// A torn record must not precede the next one. The mutation was
		// not applied, so the log and the state agree once it is cut off.
		if terr := s.wal.Truncate(s.walSize); terr != nil {
			s.broken = fmt.Errorf("db: wal unwritable: %v (cutting it back failed too: %v)", err, terr)
			return s.broken
		}
		return fmt.Errorf("db: wal append: %w", err)
	}
	s.walSize += int64(len(s.rec))
	if err := s.mem.apply(&m); err != nil {
		return err
	}
	s.walN++
	if s.compactEvery > 0 && s.walN >= s.compactEvery {
		return s.compactLocked()
	}
	return nil
}

func (s *DurableStore) Put(table, key string, value []byte) error {
	return s.append(Mutation{Op: 'P', Table: table, Key: key, Value: value})
}

func (s *DurableStore) Delete(table, key string) error {
	return s.append(Mutation{Op: 'D', Table: table, Key: key})
}

func (s *DurableStore) Get(table, key string) ([]byte, bool, error) { return s.mem.Get(table, key) }

func (s *DurableStore) Keys(table string) ([]string, error) { return s.mem.Keys(table) }

func (s *DurableStore) Scan(table string, fn func(key string, value []byte) bool) error {
	return s.mem.Scan(table, fn)
}

// Len reports the number of rows in a table.
func (s *DurableStore) Len(table string) int { return s.mem.Len(table) }

// Rows hands out every row as a put (RowStore.Rows).
func (s *DurableStore) Rows() ([]Mutation, error) { return s.mem.Rows() }

// WALRecords reports the records appended since the last compaction (the
// length of the replay a crash right now would pay on top of the snapshot).
func (s *DurableStore) WALRecords() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.walN
}

// Compact checkpoints the store: the full state is written to a fresh
// snapshot (atomically, via rename) and the WAL is cut back to its header.
// After a crash, recovery replays the snapshot plus only the
// post-compaction log.
func (s *DurableStore) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.compactLocked()
}

func (s *DurableStore) compactLocked() error {
	rows, err := s.mem.Rows()
	if err != nil {
		return err
	}
	tmp := filepath.Join(s.dir, snapshotFile+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("db: compact: %w", err)
	}
	w := bufio.NewWriter(f) // keeps its first write error for Flush
	w.WriteString(logHeader)
	for i := range rows {
		s.rec = appendRecord(s.rec[:0], &rows[i])
		w.Write(s.rec)
	}
	if err = w.Flush(); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(s.dir, snapshotFile))
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("db: compact: %w", err)
	}
	// Rotate the log: everything up to this instant is in the snapshot.
	if err := s.wal.Truncate(int64(len(logHeader))); err != nil {
		return fmt.Errorf("db: compact: rotate wal: %w", err)
	}
	s.walSize, s.walN = int64(len(logHeader)), 0
	return nil
}

// Close stops the compaction timer, flushes the WAL file and closes the
// store. Operations after Close return ErrClosed.
func (s *DurableStore) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.stopCompact)
	s.mu.Unlock()
	s.compactWG.Wait()

	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.wal.Sync()
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	if merr := s.mem.Close(); err == nil {
		err = merr
	}
	return err
}
