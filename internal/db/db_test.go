package db

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"bitdew/internal/codec"
)

// storeFixtures builds each Store implementation over a shared server so the
// whole suite runs against every engine.
func storeFixtures(t *testing.T) map[string]Store {
	t.Helper()
	fixtures := map[string]Store{
		"rowstore": NewRowStore(),
	}
	backing := NewRowStore()
	srv, err := NewServer(backing, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	conn, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	fixtures["conn"] = conn

	// Separate servers so the engines don't share tables.
	srv2, err := NewServer(NewRowStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv2.Close() })
	fixtures["unpooled"] = NewUnpooledStore(srv2.Addr())
	return fixtures
}

func TestStoreBasics(t *testing.T) {
	for name, s := range storeFixtures(t) {
		t.Run(name, func(t *testing.T) {
			if err := s.Put("t", "k1", []byte("v1")); err != nil {
				t.Fatalf("Put: %v", err)
			}
			if err := s.Put("t", "k2", []byte("v2")); err != nil {
				t.Fatalf("Put: %v", err)
			}
			v, ok, err := s.Get("t", "k1")
			if err != nil || !ok || !bytes.Equal(v, []byte("v1")) {
				t.Fatalf("Get k1 = %q %v %v", v, ok, err)
			}
			if _, ok, _ := s.Get("t", "missing"); ok {
				t.Fatal("Get missing: found")
			}
			if _, ok, _ := s.Get("other", "k1"); ok {
				t.Fatal("table isolation broken")
			}
			// Overwrite.
			if err := s.Put("t", "k1", []byte("v1b")); err != nil {
				t.Fatal(err)
			}
			v, _, _ = s.Get("t", "k1")
			if !bytes.Equal(v, []byte("v1b")) {
				t.Fatalf("overwrite: got %q", v)
			}
			keys, err := s.Keys("t")
			if err != nil || !reflect.DeepEqual(keys, []string{"k1", "k2"}) {
				t.Fatalf("Keys = %v, %v", keys, err)
			}
			var visited []string
			if err := s.Scan("t", func(k string, v []byte) bool {
				visited = append(visited, k)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(visited, []string{"k1", "k2"}) {
				t.Fatalf("Scan visited %v", visited)
			}
			// Early-exit scan.
			visited = nil
			s.Scan("t", func(k string, v []byte) bool {
				visited = append(visited, k)
				return false
			})
			if len(visited) != 1 {
				t.Fatalf("Scan early exit visited %v", visited)
			}
			if err := s.Delete("t", "k1"); err != nil {
				t.Fatal(err)
			}
			if _, ok, _ := s.Get("t", "k1"); ok {
				t.Fatal("Get after Delete: found")
			}
			if err := s.Delete("t", "never-existed"); err != nil {
				t.Fatalf("Delete absent key: %v", err)
			}
		})
	}
}

func TestStoreConcurrent(t *testing.T) {
	for name, s := range storeFixtures(t) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						key := fmt.Sprintf("w%d-k%d", w, i)
						if err := s.Put("c", key, []byte(key)); err != nil {
							t.Errorf("Put: %v", err)
							return
						}
						v, ok, err := s.Get("c", key)
						if err != nil || !ok || string(v) != key {
							t.Errorf("Get %s = %q %v %v", key, v, ok, err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			keys, err := s.Keys("c")
			if err != nil {
				t.Fatal(err)
			}
			if len(keys) != 8*50 {
				t.Fatalf("got %d keys, want 400", len(keys))
			}
		})
	}
}

func TestRowStoreClosed(t *testing.T) {
	s := NewRowStore()
	s.Close()
	if err := s.Put("t", "k", nil); err != ErrClosed {
		t.Errorf("Put after Close: %v", err)
	}
	if _, _, err := s.Get("t", "k"); err != ErrClosed {
		t.Errorf("Get after Close: %v", err)
	}
	if err := s.Delete("t", "k"); err != ErrClosed {
		t.Errorf("Delete after Close: %v", err)
	}
	if _, err := s.Keys("t"); err != ErrClosed {
		t.Errorf("Keys after Close: %v", err)
	}
}

func TestRowStoreValueIsolation(t *testing.T) {
	s := NewRowStore()
	v := []byte("mutable")
	s.Put("t", "k", v)
	v[0] = 'X'
	got, _, _ := s.Get("t", "k")
	if string(got) != "mutable" {
		t.Errorf("store aliased caller slice: %q", got)
	}
	got[0] = 'Y'
	got2, _, _ := s.Get("t", "k")
	if string(got2) != "mutable" {
		t.Errorf("Get returned aliased slice: %q", got2)
	}
}

// restore applies a log's records to a fresh RowStore.
func restore(t *testing.T, log []byte) *RowStore {
	t.Helper()
	recs, _, err := ReadLog(log)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRowStore()
	for _, batch := range recs {
		if err := r.Apply(batch); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestWALReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("t", "a", []byte("1"))
	s.Put("t", "b", []byte("2"))
	s.Put("u", "c", []byte("3"))
	s.Delete("t", "a")
	s.Put("t", "b", []byte("2b"))
	s.Close()
	wal, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}

	restored := restore(t, wal)
	if _, ok, _ := restored.Get("t", "a"); ok {
		t.Error("deleted key a resurrected")
	}
	if v, _, _ := restored.Get("t", "b"); string(v) != "2b" {
		t.Errorf("b = %q, want 2b", v)
	}
	if v, _, _ := restored.Get("u", "c"); string(v) != "3" {
		t.Errorf("c = %q, want 3", v)
	}
}

func TestSnapshotRestoresEverything(t *testing.T) {
	s := NewRowStore()
	for i := 0; i < 100; i++ {
		s.Put("t", fmt.Sprintf("k%03d", i), []byte(fmt.Sprint(i)))
	}
	rows, err := s.Rows()
	if err != nil {
		t.Fatal(err)
	}
	r := restore(t, encodeWAL(rows...))
	if r.Len("t") != 100 {
		t.Fatalf("restored %d rows, want 100", r.Len("t"))
	}
}

func TestQuickRowStorePutGet(t *testing.T) {
	s := NewRowStore()
	f := func(table, key string, value []byte) bool {
		if err := s.Put(table, key, value); err != nil {
			return false
		}
		got, ok, err := s.Get(table, key)
		return err == nil && ok && bytes.Equal(got, value)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickWALRoundTrip(t *testing.T) {
	type op struct {
		Del        bool
		Table, Key string
		Value      []byte
	}
	f := func(ops []op) bool {
		s := NewRowStore()
		var log []Mutation
		for _, o := range ops {
			if o.Del {
				s.Delete(o.Table, o.Key)
				log = append(log, Mutation{Op: 'D', Table: o.Table, Key: o.Key})
			} else {
				s.Put(o.Table, o.Key, o.Value)
				log = append(log, Mutation{Op: 'P', Table: o.Table, Key: o.Key, Value: o.Value})
			}
		}
		r := restore(t, encodeWAL(log...))
		// Final states must agree on every (table,key) touched.
		for _, o := range ops {
			want, wok, _ := s.Get(o.Table, o.Key)
			got, gok, _ := r.Get(o.Table, o.Key)
			if wok != gok || !bytes.Equal(want, got) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestUnpooledDialsPerOperation(t *testing.T) {
	srv, err := NewServer(NewRowStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	u := NewUnpooledStore(srv.Addr())
	for i := 0; i < 10; i++ {
		if err := u.Put("t", fmt.Sprint(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := u.Keys("t")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 10 {
		t.Errorf("got %d keys", len(keys))
	}
	if err := u.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// TestGetFromHungServerFails: a Get against a server that takes the
// connection and never answers returns an error, on the shared client and
// on a connection per operation, instead of blocking its caller.
func TestGetFromHungServerFails(t *testing.T) {
	// A listener nobody accepts from: the kernel completes the handshake,
	// and the request is never read, let alone answered.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Closing the listener first resets the connections, so a Get still
	// blocked past the guard returns and its client can close.
	defer lis.Close()
	stores := map[string]Store{"conn": conn, "unpooled": NewUnpooledStore(lis.Addr().String())}
	type result struct {
		name string
		err  error
	}
	done := make(chan result, len(stores))
	for name, s := range stores {
		go func() {
			_, _, err := s.Get("t", "k")
			done <- result{name, err}
		}()
	}
	guard := time.After(30 * time.Second)
	for range stores {
		select {
		case r := <-done:
			if r.err == nil {
				t.Errorf("%s: Get from a hung server succeeded", r.name)
			}
		case <-guard:
			t.Fatal("a Get from a hung server still blocks after 30s")
		}
	}
}

// TestWALWriteFailureRejectsMutation: a mutation whose WAL append fails is
// not applied, and a log that cannot be cut back refuses further writes.
func TestWALWriteFailureRejectsMutation(t *testing.T) {
	s, err := OpenDurable(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put("t", "k0", []byte("v")); err != nil {
		t.Fatal(err)
	}
	s.wal.Close() // the disk is gone
	if err := s.Put("t", "k1", []byte("v")); err == nil {
		t.Fatal("Put succeeded with an unwritable WAL")
	}
	if _, ok, _ := s.Get("t", "k1"); ok {
		t.Error("mutation applied despite WAL append failure")
	}
	if err := s.Delete("t", "k0"); err == nil {
		t.Error("Delete accepted after the WAL broke")
	}
	if _, ok, _ := s.Get("t", "k0"); !ok {
		t.Error("a read failed after the WAL broke")
	}
}

func TestReplayCorruptWAL(t *testing.T) {
	if _, _, err := ReadLog([]byte("definitely not a log")); err == nil {
		t.Error("corrupt WAL replayed without error")
	}
	// A whole frame whose CRC holds but whose body is no Mutation was
	// written by something else, not torn by a crash.
	junk := codec.AppendFrame([]byte(logHeader), func(b []byte) []byte { return append(b, "junk"...) })
	if _, _, err := ReadLog(junk); err == nil {
		t.Error("a frame holding no Mutation replayed without error")
	}
}
