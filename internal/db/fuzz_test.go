package db

import (
	"os"
	"path/filepath"
	"testing"
)

// encodeWAL renders mutations as the log OpenDurable replays, one write each.
func encodeWAL(recs ...Mutation) []byte {
	wal := []byte(logHeader)
	for i := range recs {
		wal = appendRecord(wal, recs[i:i+1])
	}
	return wal
}

// encodeBatches renders writes of several rows as the log OpenDurable
// replays, one record each.
func encodeBatches(batches ...[]Mutation) []byte {
	wal := []byte(logHeader)
	for _, batch := range batches {
		wal = appendRecord(wal, batch)
	}
	return wal
}

// batchLog writes rows in batches, as a catalog delete and an adoption do:
// one write of two rows, one of one, and one whose rows delete, put again
// and overwrite.
var batchLog = encodeBatches(
	[]Mutation{{Op: 'P', Table: "data", Key: "uid-1", Value: []byte("alpha")}, {Op: 'P', Table: "locators", Key: "uid-1", Value: []byte("host-a")}},
	[]Mutation{{Op: 'P', Table: "data", Key: "uid-2", Value: []byte("beta")}},
	[]Mutation{
		{Op: 'D', Table: "data", Key: "uid-1"},
		{Op: 'D', Table: "locators", Key: "uid-1"},
		{Op: 'P', Table: "data", Key: "uid-1", Value: []byte("again")},
		{Op: 'P', Table: "data", Key: "uid-2", Value: []byte("gamma")},
	},
)

// walTables decodes as much of a WAL byte stream as is well-formed and
// returns the table names it mentions — the replay's reachable state space,
// used to diff recovered stores.
func walTables(wal []byte) map[string]bool {
	tables := make(map[string]bool)
	recs, _, _ := ReadLog(wal)
	for _, batch := range recs {
		for _, m := range batch {
			tables[m.Table] = true
		}
	}
	return tables
}

// dumpTable snapshots one table as a key->value map.
func dumpTable(t *testing.T, s *DurableStore, table string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	if err := s.Scan(table, func(k string, v []byte) bool {
		out[k] = string(v)
		return true
	}); err != nil {
		t.Fatalf("scan %q: %v", table, err)
	}
	return out
}

// FuzzReplay throws arbitrary bytes at the WAL recovery path: whatever is
// on disk — a clean log, a torn tail from a crash mid-append, or outright
// garbage — OpenDurable must never panic, and any state it does accept must
// be stable: recovery cuts the WAL to the prefix it replayed, and a clean
// close + re-open must reproduce exactly the same rows.
func FuzzReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("not a log at all"))
	clean := encodeWAL(
		Mutation{Op: 'P', Table: "data", Key: "uid-1", Value: []byte("alpha")},
		Mutation{Op: 'P', Table: "locators", Key: "uid-1", Value: []byte("host-a")},
		Mutation{Op: 'D', Table: "data", Key: "uid-1"},
		Mutation{Op: 'P', Table: "data", Key: "uid-2", Value: []byte("beta")},
	)
	f.Add(clean)
	f.Add(clean[:len(clean)-3])                                        // torn tail: crash mid-append
	f.Add(encodeWAL(Mutation{Op: 'X', Table: "data", Key: "k"}))       // unknown op
	f.Add(encodeWAL(Mutation{Op: 'D', Table: "ghost", Key: "absent"})) // delete of a row never put
	f.Add(batchLog)
	f.Add(batchLog[:len(batchLog)-3])                                                                        // torn batch: crash mid-append of a multi-row write
	f.Add(encodeBatches([]Mutation{{Op: 'P', Table: "data", Key: "k"}, {Op: 'X', Table: "data", Key: "k"}})) // unknown op inside a batch

	f.Fuzz(func(t *testing.T, wal []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walFile), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenDurable(dir)
		if err != nil {
			return // rejected log: only the absence of panics matters
		}
		tables := walTables(wal)
		before := make(map[string]map[string]string)
		for table := range tables {
			before[table] = dumpTable(t, s, table)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("close after recovery: %v", err)
		}

		// Recovery cut the WAL to what it accepted; a re-open must
		// reproduce that exactly.
		s2, err := OpenDurable(dir)
		if err != nil {
			t.Fatalf("re-open of a cleanly closed store: %v", err)
		}
		defer s2.Close()
		for table := range tables {
			after := dumpTable(t, s2, table)
			if len(after) != len(before[table]) {
				t.Fatalf("table %q: %d rows recovered, %d after re-open", table, len(before[table]), len(after))
			}
			for k, v := range before[table] {
				got, ok := after[k]
				if !ok || got != v {
					t.Fatalf("table %q key %q: recovered %q, re-opened %q (present=%v)", table, k, v, got, ok)
				}
			}
		}
	})
}
