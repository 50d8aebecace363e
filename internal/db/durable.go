package db

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"bitdew/internal/codec"
)

const (
	snapshotFile = "snapshot.gob"
	walFile      = "wal.gob"

	// logHeader opens every log file. Its first byte cannot open a gob
	// stream, the format of earlier builds.
	logHeader = "\x89bdlog1\n"
)

// DurableStore is a RowStore whose state survives the process being
// killed: every write is appended to an on-disk write-ahead log before
// it is applied, and the log is compacted by writing a full snapshot and
// starting the log again (the paper's §3.4–3.5 design, where all D*
// service meta-data lives in a relational database precisely so a service
// restart loses nothing). Only compaction and Close fsync.
//
// Layout inside the state directory, each file a log (codec.Log) whose
// records are writes, a Mutation or, for a batch, a []Mutation:
//
//	snapshot.gob   full state at the last compaction, as puts
//	wal.N.gob      sealed segments, N rising: the WAL as it was at a seal
//	wal.gob        writes since the last seal
//
// A compaction seals the WAL under the lock, renaming it to the next
// segment, and a goroutine then writes the rows to the next snapshot off
// every lock and removes the segments, oldest first (DESIGN.md says why
// replaying snapshot, segments, then WAL is right in every crash state).
// Open cuts the WAL back to the prefix that replayed: a record torn by a
// crash mid-append is dropped, rows and all. All methods are safe for
// concurrent use; reads go to the RowStore and never wait for the log.
type DurableStore struct {
	mu  sync.Mutex // serialises the log: appends, seals and Close
	mem *RowStore
	dir string

	wal     *codec.Log
	walN    int           // records appended since the last seal
	segs    []int         // the sealed segments present, oldest first
	snap    int64         // the last snapshot's size, the live bytes the WAL's weigh against
	retried bool          // the last seal found segments left: a retry
	tried   int64         // the WAL's size when a failed retry's copy last restarted; 0 since a seal
	rec     []byte        // one framed record, built under mu
	copying chan struct{} // closed when the copy in flight ends; nil while none runs
	copyRec []byte        // the copy's record buffer
	hold    func()        // if set, each copy calls it first: a test's seam
	// compactErr is the last compaction's failure, for Close to report.
	compactErr error
	closed     bool
}

// OpenDurable opens (creating if needed) the durable store rooted at dir
// and recovers its state: the last snapshot is replayed, then the sealed
// segments, then the WAL on top of them. A directory written by an earlier
// build is refused, and left as it is.
func OpenDurable(dir string) (*DurableStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("db: open durable: %w", err)
	}
	s := &DurableStore{mem: NewRowStore(), dir: dir}
	segs, err := filepath.Glob(filepath.Join(dir, "wal.*.gob"))
	for _, name := range segs {
		var n int
		if fmt.Sscanf(filepath.Base(name), "wal.%d.gob", &n); n > 0 {
			s.segs = append(s.segs, n)
		}
	}
	slices.Sort(s.segs)
	for i := -1; i < len(s.segs) && err == nil; i++ {
		path := filepath.Join(dir, snapshotFile)
		if i >= 0 {
			path = s.segment(s.segs[i])
		}
		raw, rerr := os.ReadFile(path)
		good := 0
		if rerr == nil {
			good, rerr = codec.ReadLog(raw, logHeader, records(s.mem.Apply))
		}
		if rerr != nil && !errors.Is(rerr, os.ErrNotExist) {
			err = fmt.Errorf("%s: %w", path, rerr)
		} else if i < 0 {
			s.snap = int64(good)
		}
	}
	if err == nil {
		s.wal, err = codec.OpenLog(filepath.Join(dir, walFile), logHeader, records(func(batch []Mutation) error {
			s.walN++
			return s.mem.Apply(batch)
		}))
	}
	if err != nil {
		return nil, fmt.Errorf("db: recover %w", err)
	}
	return s, nil
}

func (s *DurableStore) segment(n int) string {
	return filepath.Join(s.dir, fmt.Sprintf("wal.%d.gob", n))
}

// ReadLog decodes a log (codec.ReadLog) into its records, each the rows of
// one write. good is the length of the prefix that holds whole records.
func ReadLog(raw []byte) (recs [][]Mutation, good int, err error) {
	good, err = codec.ReadLog(raw, logHeader, records(func(batch []Mutation) error {
		recs = append(recs, batch)
		return nil
	}))
	return recs, good, err
}

// batchBlob opens with the type fingerprint of a []Mutation.
var batchBlob, _ = codec.Marshal([]Mutation(nil))

// records returns the replay of a log whose frames each hold the codec blob
// of a write: a Mutation, or a []Mutation, told apart by the blob's type
// fingerprint. It hands each write's rows to fn. A whole frame that holds
// neither, or a row that is neither a put nor a delete, was written by
// another build, not torn by a crash: an error.
func records(fn func([]Mutation) error) func([]byte) (bool, error) {
	n := 0
	return func(body []byte) (bool, error) {
		batch := make([]Mutation, 1)
		var err error
		if bytes.HasPrefix(body, batchBlob[:4]) {
			err = codec.Unmarshal(body, &batch)
		} else {
			err = codec.Unmarshal(body, &batch[0])
		}
		if err == nil {
			err = valid(batch)
		}
		if err == nil {
			err = fn(batch)
		}
		if n++; err != nil {
			return false, fmt.Errorf("record %d: %w", n, err)
		}
		return true, nil
	}
}

// appendRecord appends batch to b as one log record: the blob of its one
// Mutation, or of the whole []Mutation.
func appendRecord(b []byte, batch []Mutation) []byte {
	return codec.AppendFrame(b, func(b []byte) []byte {
		if len(batch) == 1 {
			b, _ = codec.Append(b, &batch[0]) // a Mutation always encodes
		} else {
			b, _ = codec.Append(b, batch)
		}
		return b
	})
}

// Apply writes the batch as one WAL record, then applies it to the
// in-memory state, and starts a compaction when the log outweighs the
// snapshot. Once its record is in the log the write has happened: a
// compaction that fails after it does not fail the write. Its error is
// kept for Close, and the next write seals again to retry; once a retry
// fails, the copy restarts, over the segments already sealed, whenever the
// WAL written since outweighs the snapshot again.
func (s *DurableStore) Apply(batch []Mutation) error {
	if err := valid(batch); err != nil || len(batch) == 0 {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	// A write whose record is not in the log is not applied, so the log and
	// the state agree.
	s.rec = appendRecord(s.rec[:0], batch)
	if err := s.wal.Append(s.rec); err != nil {
		return fmt.Errorf("db: wal append: %w", err)
	}
	if err := s.mem.Apply(batch); err != nil {
		return err
	}
	s.walN++
	switch {
	case s.copying != nil:
	case len(s.segs) == 0:
		if codec.Compactable(s.wal.Size(), s.snap) {
			s.compactErr = s.seal()
		}
	case !s.retried: // segments a crash or a failed copy left
		s.compactErr = s.seal()
	case codec.Compactable(s.wal.Size()-s.tried, s.snap):
		s.tried, s.copying = s.wal.Size(), make(chan struct{})
		go s.copy(s.copying)
	}
	return nil
}

func (s *DurableStore) Put(t, k string, v []byte) error { return ApplyRow(s, 'P', t, k, v) }
func (s *DurableStore) Delete(t, k string) error        { return ApplyRow(s, 'D', t, k, nil) }

func (s *DurableStore) Get(table, key string) ([]byte, bool, error) { return s.mem.Get(table, key) }

func (s *DurableStore) Keys(table string) ([]string, error) { return s.mem.Keys(table) }

func (s *DurableStore) Scan(table string, fn func(key string, value []byte) bool) error {
	return s.mem.Scan(table, fn)
}

// Len reports the number of rows in a table.
func (s *DurableStore) Len(table string) int { return s.mem.Len(table) }

// Rows hands out every row as a put (RowStore.Rows).
func (s *DurableStore) Rows() ([]Mutation, error) { return s.mem.Rows() }

// WALRecords reports the records appended since the last seal (the
// length of the replay a crash would pay once the compaction ends).
func (s *DurableStore) WALRecords() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.walN
}

// Compact checkpoints the store and waits for it: the WAL is sealed, the
// full state written to a fresh snapshot, and the sealed segments removed.
// After a crash, recovery replays the snapshot plus only the WAL since.
func (s *DurableStore) Compact() error {
	s.lockIdle()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.compactErr = s.seal()
	s.mu.Unlock()
	s.lockIdle()
	defer s.mu.Unlock()
	return s.compactErr
}

// seal renames the WAL to the next sealed segment, opens a fresh one, and
// starts the copy. s.mu is held, and no copy runs.
func (s *DurableStore) seal() error {
	n := 1
	if len(s.segs) > 0 {
		n = s.segs[len(s.segs)-1] + 1
	}
	path, seg := filepath.Join(s.dir, walFile), s.segment(n)
	if err := os.Rename(path, seg); err != nil {
		return fmt.Errorf("db: compact: %w", err)
	}
	wal, err := codec.OpenLog(path, logHeader, nil)
	if err != nil {
		return fmt.Errorf("db: compact: start wal: %w", errors.Join(err, os.Rename(seg, path)))
	}
	s.wal.Close()
	s.wal, s.walN, s.retried, s.tried = wal, 0, len(s.segs) > 0, 0
	s.segs, s.copying = append(s.segs, n), make(chan struct{})
	go s.copy(s.copying)
	return nil
}

// copy writes the rows, as of now, to the next snapshot (fsynced before its
// rename), then removes the sealed segments, oldest first: those left are
// the newest. It takes the lock only to publish, and closes done at its end.
func (s *DurableStore) copy(done chan struct{}) {
	defer close(done)
	if s.hold != nil {
		s.hold()
	}
	rows, err := s.mem.Rows()
	var snap *codec.Log
	if err == nil {
		snap, err = codec.NextLog(filepath.Join(s.dir, snapshotFile), logHeader, true, func(w *bufio.Writer) error {
			for i := range rows {
				s.copyRec = appendRecord(s.copyRec[:0], rows[i:i+1])
				w.Write(s.copyRec)
			}
			return nil
		})
	}
	segs := s.segs
	for err == nil && len(segs) > 0 {
		if err = os.Remove(s.segment(segs[0])); err == nil {
			segs = segs[1:]
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if snap != nil {
		s.snap = snap.Size()
		snap.Close()
	}
	if err != nil {
		err = fmt.Errorf("db: compact: %w", err)
	}
	s.segs, s.compactErr, s.copying = segs, err, nil
}

// lockIdle locks s.mu once no copy runs.
func (s *DurableStore) lockIdle() {
	s.mu.Lock()
	for c := s.copying; c != nil; c = s.copying {
		s.mu.Unlock()
		<-c
		s.mu.Lock()
	}
}

// Close waits for a copy in flight, flushes the WAL file and closes the
// store, and reports a failed compaction that no later one repaired.
// Operations after Close return ErrClosed.
func (s *DurableStore) Close() error {
	s.mu.Lock()
	closed := s.closed
	s.closed = true
	s.mu.Unlock()
	if closed {
		return nil
	}
	s.lockIdle()
	defer s.mu.Unlock()
	return errors.Join(s.compactErr, s.wal.Sync(), s.wal.Close(), s.mem.Close())
}
