package db

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
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
// killed: every mutation is appended to an on-disk write-ahead log before
// it is applied, and the log is compacted by writing a full snapshot and
// starting the log again (the paper's §3.4–3.5 design, where all D*
// service meta-data lives in a relational database precisely so a service
// restart loses nothing). Only compaction and Close fsync.
//
// Layout inside the state directory, each file a log (codec.Log) of
// Mutation records:
//
//	snapshot.gob   full state at the last compaction, as puts
//	wal.gob        mutations since the last compaction
//
// Open replays snapshot then WAL, and cuts the WAL back to the prefix that
// replayed: a record torn by a crash mid-append is dropped. The WAL is
// compacted once its bytes outweigh the snapshot's (codec.Compactable).
// All methods are safe for concurrent use; reads go to the RowStore and
// never wait for the log.
type DurableStore struct {
	mu  sync.Mutex // serialises the log: appends, compaction and Close
	mem *RowStore
	dir string

	wal    *codec.Log
	walN   int    // records appended since the last compaction
	snap   int64  // the last snapshot's size, the live bytes the WAL's weigh against
	rec    []byte // one framed record, built under mu
	closed bool
}

// OpenDurable opens (creating if needed) the durable store rooted at dir
// and recovers its state: the last snapshot is replayed, then the WAL on
// top of it. A directory written by an earlier build is refused, and left
// as it is.
func OpenDurable(dir string) (*DurableStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("db: open durable: %w", err)
	}
	s := &DurableStore{mem: NewRowStore(), dir: dir}
	path := filepath.Join(dir, snapshotFile)
	raw, err := os.ReadFile(path)
	if err == nil {
		var good int
		good, err = codec.ReadLog(raw, logHeader, records(s.mem.apply))
		s.snap = int64(good)
	}
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("db: recover %s: %w", path, err)
	}
	s.wal, err = codec.OpenLog(filepath.Join(dir, walFile), logHeader, records(func(m *Mutation) error {
		s.walN++
		return s.mem.apply(m)
	}))
	if err != nil {
		return nil, fmt.Errorf("db: recover %w", err)
	}
	return s, nil
}

// ReadLog decodes a log (codec.ReadLog) of Mutation records. good is the
// length of the prefix that holds whole records.
func ReadLog(raw []byte) (muts []Mutation, good int, err error) {
	good, err = codec.ReadLog(raw, logHeader, records(func(m *Mutation) error {
		muts = append(muts, *m)
		return nil
	}))
	return muts, good, err
}

// records returns the replay of a log whose frames each hold the codec blob
// of a put or a delete, which it hands to fn. A whole frame that holds
// neither was written by another build, not torn by a crash: an error.
func records(fn func(*Mutation) error) func([]byte) (bool, error) {
	n := 0
	return func(body []byte) (bool, error) {
		var m Mutation
		err := codec.Unmarshal(body, &m)
		if err == nil && m.Op != 'P' && m.Op != 'D' {
			err = fmt.Errorf("unknown op %q", m.Op)
		}
		if err == nil {
			err = fn(&m)
		}
		if n++; err != nil {
			return false, fmt.Errorf("record %d: %w", n, err)
		}
		return true, nil
	}
}

// appendRecord appends m to b as one log record.
func appendRecord(b []byte, m *Mutation) []byte {
	return codec.AppendFrame(b, func(b []byte) []byte {
		b, _ = codec.Append(b, m) // a Mutation always encodes
		return b
	})
}

// append writes one WAL record, then applies it to the in-memory state,
// and compacts when the WAL outweighs the snapshot.
func (s *DurableStore) append(m Mutation) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	// A mutation whose record is not in the log is not applied, so the log
	// and the state agree.
	s.rec = appendRecord(s.rec[:0], &m)
	if err := s.wal.Append(s.rec); err != nil {
		return fmt.Errorf("db: wal append: %w", err)
	}
	if err := s.mem.apply(&m); err != nil {
		return err
	}
	s.walN++
	if codec.Compactable(s.wal.Size(), s.snap) {
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
// snapshot and the WAL starts again, each published by a rename. After a
// crash, recovery replays the snapshot plus only the WAL since.
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
	snap, err := codec.NextLog(filepath.Join(s.dir, snapshotFile), logHeader, true, func(w *bufio.Writer) error {
		for i := range rows {
			s.rec = appendRecord(s.rec[:0], &rows[i])
			w.Write(s.rec)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("db: compact: %w", err)
	}
	s.snap = snap.Size()
	snap.Close()
	// Start the WAL again: everything up to this instant is in the snapshot.
	wal, err := codec.NextLog(filepath.Join(s.dir, walFile), logHeader, false, func(*bufio.Writer) error { return nil })
	if err != nil {
		return fmt.Errorf("db: compact: start wal: %w", err)
	}
	s.wal.Close()
	s.wal, s.walN = wal, 0
	return nil
}

// Close flushes the WAL file and closes the store. Operations after Close
// return ErrClosed.
func (s *DurableStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return errors.Join(s.wal.Sync(), s.wal.Close(), s.mem.Close())
}
