package repl

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"bitdew/internal/db"
)

// The consistency property: after any prefix-closed stream of writes is
// applied to a primary's feed — puts, deletes, overwrites, deletes of
// absent keys, batches of several rows, across any mix of tables — and the
// plane reports
// replicated, the replica's namespace for that primary holds EXACTLY the
// primary's live rows, byte for byte. The streams come from the durable
// store's fuzz corpus (internal/db/testdata/fuzz/FuzzReplay), so the same
// adversarial logs that exercise WAL replay also exercise the ship/apply
// pipeline, and every new crash-shape the fuzzer finds automatically
// becomes a replication test case. A replica kill+restart is interleaved
// mid-stream, so each corpus entry also crosses the snapshot-resync path,
// not just incremental shipping.

// loadFuzzCorpus decodes every seed in the FuzzReplay corpus into its
// stream of writes. Corpus files are Go fuzz v1 format: a header line, then
// one []byte("...") literal holding a log of framed writes — exactly what
// db.ReadLog reads (dropping torn tails the same way WAL replay does,
// so seed-not-gob and seed-torn-* yield the well-formed prefix, which may
// be empty).
func loadFuzzCorpus(t *testing.T) map[string][][]db.Mutation {
	t.Helper()
	dir := filepath.Join("..", "db", "testdata", "fuzz", "FuzzReplay")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("fuzz corpus missing: %v", err)
	}
	corpus := make(map[string][][]db.Mutation)
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(raw), "\n")
		if len(lines) < 2 || !strings.HasPrefix(lines[0], "go test fuzz v1") {
			t.Fatalf("%s: not a fuzz corpus file", e.Name())
		}
		lit := strings.TrimSpace(lines[1])
		lit = strings.TrimPrefix(lit, "[]byte(")
		lit = strings.TrimSuffix(lit, ")")
		payload, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: unquote: %v", e.Name(), err)
		}
		// Corrupt tails are the corpus's point: take the well-formed prefix.
		recs, _, _ := db.ReadLog([]byte(payload))
		corpus[e.Name()] = recs
	}
	if len(corpus) == 0 {
		t.Fatal("fuzz corpus is empty")
	}
	return corpus
}

// applyMutations replays a decoded stream onto a primary's feed, each
// write as the one batch it was in the log.
func applyMutations(t *testing.T, feed *db.FeedStore, recs [][]db.Mutation) {
	t.Helper()
	for _, batch := range recs {
		if err := feed.Apply(batch); err != nil {
			t.Fatal(err)
		}
	}
}

// tableRows scans one table of a store into a key→value map.
func tableRows(t *testing.T, s db.Store, table string) map[string][]byte {
	t.Helper()
	rows := make(map[string][]byte)
	err := s.Scan(table, func(key string, value []byte) bool {
		rows[key] = append([]byte(nil), value...)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// assertReplicaMatches compares, for every table the stream touched, the
// primary's live rows against the replica's namespace for that primary.
func assertReplicaMatches(t *testing.T, primary *testShard, replica *testShard, src int, tables []string) {
	t.Helper()
	for _, table := range tables {
		want := tableRows(t, primary.feed, table)
		got := tableRows(t, replica.node.rstore, nsTable(src, table))
		if len(got) != len(want) {
			t.Errorf("table %q: primary has %d rows, replica has %d", table, len(want), len(got))
		}
		for k, wv := range want {
			gv, ok := got[k]
			if !ok {
				t.Errorf("table %q: row %q missing on replica", table, k)
				continue
			}
			if !bytes.Equal(gv, wv) {
				t.Errorf("table %q row %q: primary %q, replica %q", table, k, wv, gv)
			}
		}
		for k := range got {
			if _, ok := want[k]; !ok {
				t.Errorf("table %q: replica holds row %q the primary does not", table, k)
			}
		}
	}
}

// streamTables lists the distinct tables a stream touches, sorted.
func streamTables(recs [][]db.Mutation) []string {
	seen := make(map[string]bool)
	for _, batch := range recs {
		for _, m := range batch {
			seen[m.Table] = true
		}
	}
	tables := make([]string, 0, len(seen))
	for table := range seen {
		tables = append(tables, table)
	}
	sort.Strings(tables)
	return tables
}

// TestReplicaConsistencyCorpus replays each fuzz-corpus stream onto a
// 2-shard R=2 plane's primary with a replica crash+restart in the middle,
// then asserts the replica namespace is byte-identical to the primary's
// live state. The split forces half the stream through incremental
// shipping, the restart through full snapshot resync, and the second half
// through shipping-after-resync.
func TestReplicaConsistencyCorpus(t *testing.T) {
	for name, recs := range loadFuzzCorpus(t) {
		recs := recs
		t.Run(name, func(t *testing.T) {
			p := newPlane(t, 2, 2)
			half := len(recs) / 2
			applyMutations(t, p.shards[0].feed, recs[:half])
			if err := p.shards[0].node.WaitReplicated(testWait); err != nil {
				t.Fatal(err)
			}
			// Crash the replica: everything shipped so far is lost with its
			// in-memory store; the restart must rebuild it from a snapshot.
			p.kill(1)
			applyMutations(t, p.shards[0].feed, recs[half:])
			p.restart(1)
			if err := p.shards[0].node.WaitReplicated(testWait); err != nil {
				t.Fatal(err)
			}
			assertReplicaMatches(t, p.shards[0], p.shards[1], 0, streamTables(recs))
		})
	}
}

// TestReplicaConsistencyCombined concatenates the whole corpus into one
// long stream — overwrite shapes from one seed interleave with delete
// shapes from another — and replays it with a replica restart every few
// records, so resync happens repeatedly at arbitrary stream positions.
func TestReplicaConsistencyCombined(t *testing.T) {
	corpus := loadFuzzCorpus(t)
	names := make([]string, 0, len(corpus))
	for name := range corpus {
		names = append(names, name)
	}
	sort.Strings(names)
	var all [][]db.Mutation
	rows := 0
	for i, name := range names {
		for _, rec := range corpus[name] {
			// Suffix keys per seed so streams overlap on tables but not on
			// every key: both shared-key overwrites (same seed) and
			// disjoint-key merges (across seeds) are represented.
			batch := make([]db.Mutation, len(rec))
			for j, m := range rec {
				m.Key = m.Key + "#" + fmt.Sprintf("%02d", i%3)
				batch[j] = m
			}
			all = append(all, batch)
			rows += len(batch)
		}
	}
	if rows < 8 {
		t.Fatalf("combined corpus only has %d mutations — corpus shrank?", rows)
	}

	p := newPlane(t, 2, 2)
	chunk := (len(all) + 3) / 4
	for start := 0; start < len(all); start += chunk {
		end := start + chunk
		if end > len(all) {
			end = len(all)
		}
		applyMutations(t, p.shards[0].feed, all[start:end])
		if err := p.shards[0].node.WaitReplicated(testWait); err != nil {
			t.Fatal(err)
		}
		// Bounce the replica between chunks: each boundary is a fresh
		// epoch and a fresh snapshot resync at a different stream offset.
		if end < len(all) {
			p.kill(1)
			p.restart(1)
		}
	}
	if err := p.shards[0].node.WaitReplicated(testWait); err != nil {
		t.Fatal(err)
	}
	assertReplicaMatches(t, p.shards[0], p.shards[1], 0, streamTables(all))
}
