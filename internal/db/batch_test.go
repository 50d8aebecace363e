package db

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestApplyBatch: every Store applies a batch in order and whole, and
// refuses one holding an op that is neither a put nor a delete without
// applying any of its rows.
func TestApplyBatch(t *testing.T) {
	fixtures := storeFixtures(t)
	durable, err := OpenDurable(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer durable.Close()
	fixtures["durable"] = durable
	if fixtures["feed"], err = NewFeedStore(NewRowStore(), 1); err != nil {
		t.Fatal(err)
	}
	fixtures["gated"] = NewGatedStore(NewRowStore(), func(string) error { return nil }, "t")
	for name, s := range fixtures {
		t.Run(name, func(t *testing.T) {
			if err := s.Put("t", "old", []byte("o")); err != nil {
				t.Fatal(err)
			}
			err := s.Apply([]Mutation{
				{Op: 'P', Table: "t", Key: "a", Value: []byte("1")},
				{Op: 'P', Table: "u", Key: "b", Value: []byte("2")},
				{Op: 'P', Table: "t", Key: "a", Value: []byte("3")},
				{Op: 'D', Table: "t", Key: "old"},
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range []struct{ table, key, value string }{{"t", "a", "3"}, {"u", "b", "2"}, {"t", "old", ""}} {
				v, ok, err := s.Get(want.table, want.key)
				if err != nil || ok != (want.value != "") || string(v) != want.value {
					t.Errorf("%s/%s = %q, %v, %v; want %q", want.table, want.key, v, ok, err, want.value)
				}
			}
			err = s.Apply([]Mutation{{Op: 'P', Table: "t", Key: "c", Value: []byte("4")}, {Op: 'X', Table: "t", Key: "a"}})
			if err == nil || !strings.Contains(err.Error(), "unknown op") {
				t.Fatalf("a batch with an unknown op: %v", err)
			}
			if _, ok, _ := s.Get("t", "c"); ok {
				t.Error("a refused batch applied its first row")
			}
		})
	}
}

// TestGatedBatchRefusedWritesNothing: a batch with one key the gate refuses
// writes none of its rows, in gated tables or not.
func TestGatedBatchRefusedWritesNothing(t *testing.T) {
	refused := errors.New("not mine")
	inner := NewRowStore()
	g := NewGatedStore(inner, func(k string) error {
		if k == "theirs" {
			return refused
		}
		return nil
	}, "data")
	err := g.Apply([]Mutation{
		{Op: 'P', Table: "data", Key: "mine", Value: []byte("1")},
		{Op: 'P', Table: "other", Key: "theirs", Value: []byte("2")}, // not gated
		{Op: 'D', Table: "data", Key: "theirs"},
	})
	if !errors.Is(err, refused) {
		t.Fatalf("Apply = %v, want the gate's refusal", err)
	}
	if inner.Len("data") != 0 || inner.Len("other") != 0 {
		t.Fatalf("a refused batch wrote %d data and %d other rows", inner.Len("data"), inner.Len("other"))
	}
	if err := g.Apply([]Mutation{{Op: 'P', Table: "other", Key: "theirs"}}); err != nil {
		t.Fatalf("an ungated table's row was refused: %v", err)
	}
}

// TestFeedBatchIsOneSeq: a batch is one sequence number, its rows fed back
// to back under it, and a subscriber without room for all of them is
// dropped before it receives any.
func TestFeedBatchIsOneSeq(t *testing.T) {
	fs, err := NewFeedStore(NewRowStore(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	_, _, small, err := fs.SnapshotAndFollow(2)
	if err != nil {
		t.Fatal(err)
	}
	_, _, big, err := fs.SnapshotAndFollow(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Put("t", "k0", nil); err != nil {
		t.Fatal(err)
	}
	batch := []Mutation{{Op: 'P', Table: "t", Key: "k1"}, {Op: 'P', Table: "u", Key: "k2"}, {Op: 'D', Table: "t", Key: "k0"}}
	if err := fs.Apply(batch); err != nil {
		t.Fatal(err)
	}
	if fs.Seq() != 2 {
		t.Fatalf("two writes fed to seq %d", fs.Seq())
	}
	var got []Mutation
	for m := range small.C() {
		got = append(got, m)
	}
	if len(got) != 1 || got[0].Key != "k0" || small.Err() != ErrFeedLost {
		t.Fatalf("the subscriber with room for 1 of 3 rows got %+v, err %v; want the first write only, ErrFeedLost", got, small.Err())
	}
	got = collectFeed(t, big, 4)
	for i, m := range got[1:] {
		if m.Seq != 2 || m.Key != batch[i].Key || m.Op != batch[i].Op {
			t.Errorf("row %d of the batch fed as %+v", i, m)
		}
	}
}

// TestDurableBatchIsOneRecord: a write of several rows is one WAL record,
// the blob of its []Mutation, and replays whole.
func TestDurableBatchIsOneRecord(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("t", "k0", []byte("v0")); err != nil {
		t.Fatal(err)
	}
	batch := []Mutation{{Op: 'P', Table: "t", Key: "k1", Value: []byte("v1")}, {Op: 'D', Table: "t", Key: "k0"}}
	if err := s.Apply(batch); err != nil {
		t.Fatal(err)
	}
	if n := s.WALRecords(); n != 2 {
		t.Fatalf("two writes are %d WAL records", n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if frame := encodeBatches(batch)[len(logHeader):]; !bytes.HasSuffix(raw, frame) {
		t.Fatalf("the WAL does not end with the batch's one frame:\n%x", raw)
	}
	recs, good, err := ReadLog(raw)
	if err != nil || good != len(raw) || len(recs) != 2 || len(recs[0]) != 1 || len(recs[1]) != 2 {
		t.Fatalf("ReadLog = %+v, %d of %d bytes, %v", recs, good, len(raw), err)
	}
	re, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := dumpTable(t, re, "t"); len(got) != 1 || got["k1"] != "v1" {
		t.Fatalf("reopened = %v", got)
	}
}

// TestTornWriteMatrixBatch cuts the WAL at every byte of a batch record,
// whose rows put, overwrite and delete: each cut reopens to all of the batch
// or none of it, and the store goes on writing.
func TestTornWriteMatrixBatch(t *testing.T) {
	master := t.TempDir()
	s, err := OpenDurable(master)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := s.Put("t", key(i), []byte(val(i))); err != nil {
			t.Fatal(err)
		}
	}
	wal := filepath.Join(master, walFile)
	st, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	start := st.Size()
	err = s.Apply([]Mutation{
		{Op: 'P', Table: "t", Key: key(2), Value: []byte(val(2))},
		{Op: 'D', Table: "t", Key: key(0)},
		{Op: 'P', Table: "t", Key: key(1), Value: []byte("over")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err = os.Stat(wal); err != nil {
		t.Fatal(err)
	}
	end := st.Size()
	none := map[string]string{key(0): val(0), key(1): val(1)}
	all := map[string]string{key(1): "over", key(2): val(2)}

	for cut := start; cut <= end; cut++ {
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("cut-%d", cut))
		copyDir(t, master, dir)
		want := none
		if cut == end {
			want = all
		}
		s := recoverAt(t, dir, cut)
		if got := dumpTable(t, s, "t"); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("cut %d: recovered %v, want %v", cut, got, want)
		}
		if err := s.Put("post", "post-crash", []byte("alive")); err != nil {
			t.Fatalf("cut %d: write after recovery: %v", cut, err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
		s2, err := OpenDurable(dir)
		if err != nil {
			t.Fatalf("cut %d: second recovery: %v", cut, err)
		}
		if got := dumpTable(t, s2, "t"); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("cut %d: second recovery %v, want %v", cut, got, want)
		}
		if got := dumpTable(t, s2, "post"); got["post-crash"] != "alive" {
			t.Fatalf("cut %d: post-crash write = %v", cut, got)
		}
		s2.Close()
	}
}

// TestCompactionFailureKeepsTheWrite: a write whose record is in the log has
// happened, whatever the compaction after it does. It reports success and is
// fed, the failure is reported by Compact and Close, and the next write
// tries the compaction again.
func TestCompactionFailureKeepsTheWrite(t *testing.T) {
	dir := t.TempDir()
	blocked := filepath.Join(dir, snapshotFile+".tmp")
	if err := os.Mkdir(blocked, 0o755); err != nil { // the next snapshot cannot be written
		t.Fatal(err)
	}
	s, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := NewFeedStore(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	value := bytes.Repeat([]byte("v"), 600<<10) // the second put passes the compaction threshold
	for i := 0; i < 3; i++ {
		if err := fs.Put("t", key(i), value); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		if _, ok, _ := fs.Get("t", key(i)); !ok {
			t.Fatalf("put %d is not readable", i)
		}
	}
	if fs.Seq() != 3 {
		t.Fatalf("3 writes fed to seq %d", fs.Seq())
	}
	if err := s.Compact(); err == nil {
		t.Fatal("Compact succeeded onto a blocked snapshot")
	}
	fs.Close()
	if err := s.Close(); err == nil || !strings.Contains(err.Error(), "compact") {
		t.Fatalf("Close = %v, want the compaction's failure", err)
	}

	if err := os.Remove(blocked); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len("t") != 3 {
		t.Fatalf("reopened with %d of 3 rows", re.Len("t"))
	}
	if err := re.Put("t", key(3), value); err != nil {
		t.Fatal(err)
	}
	if n := re.WALRecords(); n != 0 {
		t.Fatalf("the write after the unblocking did not compact: %d WAL records", n)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOneRowWriteAllocAcceptance: a Put or Delete through the plane's
// stack — gate, feed with a subscriber, durable or in-memory store —
// allocates no more than it did before writes became batches: the
// one-row batch is pooled, not allocated per write, though a slice passed
// through the Store interface escapes. The bars are the earlier counts.
func TestOneRowWriteAllocAcceptance(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	durable, err := OpenDurable(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer durable.Close()
	for _, c := range []struct {
		name     string
		inner    Store
		put, del float64
	}{
		{"durable", durable, 2, 1},
		{"memory", NewRowStore(), 1, 0},
	} {
		fs, err := NewFeedStore(c.inner, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := fs.SnapshotAndFollow(4096); err != nil {
			t.Fatal(err)
		}
		g := NewGatedStore(fs, func(string) error { return nil }, "t")
		keys, value, i := []string{"a", "b", "c", "d"}, []byte("value"), 0
		put := testing.AllocsPerRun(1000, func() {
			if err := g.Put("t", keys[i%4], value); err != nil {
				t.Fatal(err)
			}
			i++
		})
		del := testing.AllocsPerRun(1000, func() {
			if err := g.Delete("t", keys[i%4]); err != nil {
				t.Fatal(err)
			}
			i++
		})
		t.Logf("%s: a put allocates %.0f times, a delete %.0f", c.name, put, del)
		if put > c.put || del > c.del {
			t.Errorf("%s: a put allocates %.0f times (want ≤ %.0f), a delete %.0f (want ≤ %.0f)", c.name, put, c.put, del, c.del)
		}
		fs.Close()
	}
}
