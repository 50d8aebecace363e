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

func (s *RowStore) Put(table, key string, value []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	t := s.tables[table]
	if t == nil {
		t = make(map[string][]byte)
		s.tables[table] = t
	}
	t[key] = append([]byte(nil), value...)
	return nil
}

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

func (s *RowStore) Delete(table, key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	delete(s.tables[table], key)
	return nil
}

// apply performs m, a put or a delete.
func (s *RowStore) apply(m *Mutation) error {
	if m.Op == 'D' {
		return s.Delete(m.Table, m.Key)
	}
	return s.Put(m.Table, m.Key, m.Value)
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
// are the stored slices, which Put never changes (it stores a copy), so the
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
