// Package db provides the SQL-database back-end of the BitDew runtime
// (paper §3.5). The original prototype persisted objects through Java JDO
// into either MySQL (a networked server reached through a client/server
// JDBC protocol) or HsqlDB (an embedded engine living in the service's
// process), optionally in front of the DBCP connection pool.
//
// This package reproduces the same three design axes with real costs:
//
//   - RowStore is the embedded engine (HsqlDB role): an in-process,
//     mutex-protected table store. DurableStore adds the write-ahead log
//     and snapshot that carry it across a restart.
//   - NewServer serves any Store as the rpc service "db" (MySQL role):
//     every operation pays a real network round trip, and — exactly like
//     JDBC without a pool — an UnpooledStore dials a fresh connection per
//     operation.
//   - Client is the DBCP substitute: one multiplexed connection that every
//     caller shares, as the plane shares one client per shard.
package db

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("db: closed")

// Store is the persistence interface used by every BitDew service that
// serialises objects (Data Catalog, Data Scheduler, Data Repository
// metadata). Keys are unique within a table.
type Store interface {
	// Apply writes a batch of puts and deletes, in order, atomically: every
	// layer applies, logs, feeds and ships all of it or none of it. It is
	// the one write; Put and Delete are one-row batches.
	Apply(batch []Mutation) error
	// Put stores value under (table, key), overwriting any previous value.
	Put(table, key string, value []byte) error
	// Get retrieves the value under (table, key); found is false when the
	// key is absent.
	Get(table, key string) (value []byte, found bool, err error)
	// Delete removes (table, key); deleting an absent key is not an error.
	Delete(table, key string) error
	// Keys lists the keys of a table in sorted order.
	Keys(table string) ([]string, error)
	// Scan visits every (key, value) of a table in sorted key order until
	// fn returns false.
	Scan(table string, fn func(key string, value []byte) bool) error
	// Close releases resources. Operations after Close return ErrClosed.
	Close() error
}

// RowStore is the embedded engine. The zero value is not usable; call
// NewRowStore. All methods are safe for concurrent use.
type RowStore struct {
	mu     sync.RWMutex
	tables map[string]map[string][]byte
	closed bool
}

// NewRowStore returns an empty embedded store.
func NewRowStore() *RowStore {
	return &RowStore{tables: make(map[string]map[string][]byte)}
}

// oneRow holds the batches of ApplyRow: a slice passed through the Store
// interface escapes to the heap, so each would be an allocation.
var oneRow = sync.Pool{New: func() any { return new([1]Mutation) }}

// ApplyRow is every Store's Put (op 'P') and Delete ('D'): s.Apply of a
// batch of one row.
func ApplyRow(s Store, op byte, table, key string, value []byte) error {
	b := oneRow.Get().(*[1]Mutation)
	b[0] = Mutation{Op: op, Table: table, Key: key, Value: value}
	err := s.Apply(b[:])
	*b = [1]Mutation{}
	oneRow.Put(b)
	return err
}

// valid refuses a batch that holds anything but puts and deletes.
func valid(batch []Mutation) error {
	for i := range batch {
		if op := batch[i].Op; op != 'P' && op != 'D' {
			return fmt.Errorf("db: unknown op %q", op)
		}
	}
	return nil
}

// Apply writes the batch under one hold of the lock, so a reader sees all
// of it or none of it. Values are copied.
func (s *RowStore) Apply(batch []Mutation) error {
	if err := valid(batch); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	for _, m := range batch {
		t := s.tables[m.Table]
		if m.Op == 'D' {
			delete(t, m.Key)
			continue
		}
		if t == nil {
			t = make(map[string][]byte)
			s.tables[m.Table] = t
		}
		t[m.Key] = append([]byte(nil), m.Value...)
	}
	return nil
}

func (s *RowStore) Put(t, k string, v []byte) error { return ApplyRow(s, 'P', t, k, v) }
func (s *RowStore) Delete(t, k string) error        { return ApplyRow(s, 'D', t, k, nil) }

func (s *RowStore) Get(table, key string) ([]byte, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, false, ErrClosed
	}
	v, ok := s.tables[table][key]
	if !ok {
		return nil, false, nil
	}
	return append([]byte(nil), v...), true, nil
}

func (s *RowStore) Keys(table string) ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	t := s.tables[table]
	keys := make([]string, 0, len(t))
	for k := range t {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, nil
}

func (s *RowStore) Scan(table string, fn func(key string, value []byte) bool) error {
	keys, err := s.Keys(table)
	if err != nil {
		return err
	}
	for _, k := range keys {
		v, ok, err := s.Get(table, k)
		if err != nil {
			return err
		}
		if !ok {
			continue // deleted concurrently
		}
		if !fn(k, v) {
			return nil
		}
	}
	return nil
}

func (s *RowStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

// Len reports the number of rows in a table.
func (s *RowStore) Len(table string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.tables[table])
}

// Rows hands out every row as a put, in table then key order. The values
// are the stored slices, which Apply never changes (it stores a copy), so the
// caller must not change them either.
func (s *RowStore) Rows() ([]Mutation, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	n := 0
	for _, t := range s.tables {
		n += len(t)
	}
	rows := make([]Mutation, 0, n)
	for table, t := range s.tables {
		for k, v := range t {
			rows = append(rows, Mutation{Op: 'P', Table: table, Key: k, Value: v})
		}
	}
	slices.SortFunc(rows, func(a, b Mutation) int {
		return cmp.Or(strings.Compare(a.Table, b.Table), strings.Compare(a.Key, b.Key))
	})
	return rows, nil
}
