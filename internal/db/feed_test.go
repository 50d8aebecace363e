package db

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
)

func collectFeed(t *testing.T, f *Feed, n int) []Mutation {
	t.Helper()
	out := make([]Mutation, 0, n)
	for m := range f.C() {
		out = append(out, m)
		if len(out) == n {
			return out
		}
	}
	t.Fatalf("feed closed after %d of %d mutations (err %v)", len(out), n, f.Err())
	return nil
}

// TestFeedStoreStream pins the core contract: every write through the
// FeedStore arrives on a subscription, in order, with contiguous sequence
// numbers starting just past the snapshot watermark.
func TestFeedStoreStream(t *testing.T) {
	fs, err := NewFeedStore(NewRowStore(), 7)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if fs.Epoch() != 7 {
		t.Fatalf("epoch = %d, want 7", fs.Epoch())
	}

	if err := fs.Put("t", "pre", []byte("x")); err != nil {
		t.Fatal(err)
	}
	seq, snap, feed, err := fs.SnapshotAndFollow(64)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 1 {
		t.Fatalf("snapshot watermark = %d, want 1", seq)
	}
	if len(snap) != 1 || snap[0].Key != "pre" || snap[0].Op != 'P' {
		t.Fatalf("snapshot = %+v", snap)
	}

	if err := fs.Put("t", "a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Delete("t", "pre"); err != nil {
		t.Fatal(err)
	}
	got := collectFeed(t, feed, 2)
	if got[0].Seq != 2 || got[0].Op != 'P' || got[0].Key != "a" {
		t.Fatalf("first tail mutation = %+v", got[0])
	}
	if got[1].Seq != 3 || got[1].Op != 'D' || got[1].Key != "pre" {
		t.Fatalf("second tail mutation = %+v", got[1])
	}

	// Reads pass through.
	v, ok, err := fs.Get("t", "a")
	if err != nil || !ok || string(v) != "1" {
		t.Fatalf("Get = %q %v %v", v, ok, err)
	}
	if _, ok, _ := fs.Get("t", "pre"); ok {
		t.Fatal("deleted key still readable")
	}
}

// TestFeedStoreOverflow pins the backpressure policy: a subscriber that
// falls further behind than its buffer is dropped with ErrFeedLost rather
// than stalling the write path, and other subscribers are unaffected.
func TestFeedStoreOverflow(t *testing.T) {
	fs, err := NewFeedStore(NewRowStore(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	_, _, slow, err := fs.SnapshotAndFollow(2)
	if err != nil {
		t.Fatal(err)
	}
	_, _, fast, err := fs.SnapshotAndFollow(64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := fs.Put("t", fmt.Sprintf("k%d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	// slow's buffer (2) overflowed on the third put: dropped with ErrFeedLost.
	n := 0
	for range slow.C() {
		n++
	}
	if n != 2 || slow.Err() != ErrFeedLost {
		t.Fatalf("slow subscription: %d buffered, err %v; want 2, ErrFeedLost", n, slow.Err())
	}
	// fast saw everything.
	got := collectFeed(t, fast, 5)
	for i, m := range got {
		if m.Seq != uint64(i+1) {
			t.Fatalf("fast mutation %d has seq %d", i, m.Seq)
		}
	}
}

// TestFeedStoreSnapshotAtomicity hammers SnapshotAndFollow against
// concurrent writers: for every subscription, snapshot ∪ tail must replay
// to a state with no gaps or duplicates — the watermark and the first tail
// seq always meet exactly.
func TestFeedStoreSnapshotAtomicity(t *testing.T) {
	fs, err := NewFeedStore(NewRowStore(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	const writes = 200
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < writes; i++ {
			_ = fs.Put("t", fmt.Sprintf("k%d", i), []byte{byte(i)})
		}
	}()
	for i := 0; i < 20; i++ {
		seq, snap, feed, err := fs.SnapshotAndFollow(writes + 8)
		if err != nil {
			t.Fatal(err)
		}
		if uint64(len(snap)) != seq {
			t.Fatalf("snapshot has %d rows at watermark %d (all writes are distinct keys)", len(snap), seq)
		}
		// The first tail mutation, if the writer is still going, is seq+1.
		select {
		case m, ok := <-feed.C():
			if ok && m.Seq != seq+1 {
				t.Fatalf("watermark %d followed by tail seq %d", seq, m.Seq)
			}
		default:
		}
		feedDrop(fs, feed)
	}
	wg.Wait()
}

// feedDrop unsubscribes a feed (test helper: prod subscribers just stop
// draining and let overflow drop them).
func feedDrop(fs *FeedStore, f *Feed) {
	fs.mu.Lock()
	for i, s := range fs.subs {
		if s == f {
			fs.subs = append(fs.subs[:i], fs.subs[i+1:]...)
			break
		}
	}
	fs.mu.Unlock()
	f.drop(nil)
}

// TestFeedStoreClose pins orderly shutdown: Close closes every
// subscription channel with a nil error, refuses further writes, and
// leaves the inner store open (ownership stays with whoever opened it).
func TestFeedStoreClose(t *testing.T) {
	inner := NewRowStore()
	fs, err := NewFeedStore(inner, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, _, feed, err := fs.SnapshotAndFollow(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-feed.C(); ok {
		t.Fatal("subscription channel not closed")
	}
	if feed.Err() != nil {
		t.Fatalf("orderly close reported err %v", feed.Err())
	}
	if err := inner.Put("t", "k", nil); err != nil {
		t.Fatalf("inner store closed by FeedStore.Close: %v", err)
	}
	if err := fs.Put("t", "k2", nil); err != ErrClosed {
		t.Fatalf("feed Put after Close: %v", err)
	}
	if _, _, _, err := fs.SnapshotAndFollow(1); err != ErrClosed {
		t.Fatalf("SnapshotAndFollow after Close: %v", err)
	}
}

// TestFeedStoreBypass pins the deliberate hole: writes on the inner store
// do not enter the feed (the replication layer stores replica-namespace
// rows that way, and they must never re-enter the primary stream).
func TestFeedStoreBypass(t *testing.T) {
	inner := NewRowStore()
	fs, err := NewFeedStore(inner, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	_, _, feed, err := fs.SnapshotAndFollow(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Inner().Put("r0!t", "k", []byte("replica row")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Put("t", "k", nil); err != nil {
		t.Fatal(err)
	}
	m := collectFeed(t, feed, 1)[0]
	if m.Table != "t" || m.Seq != 1 {
		t.Fatalf("feed saw %+v; bypass write leaked into the stream", m)
	}
}

// TestDecodeMutations pins the one record format: a RowStore's rows,
// framed as compaction writes them, decode into the same mutations, and a
// torn tail is dropped silently, matching durable recovery.
func TestDecodeMutations(t *testing.T) {
	s := NewRowStore()
	if err := s.Put("a", "k1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", "k2", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	rows, err := s.Rows()
	if err != nil {
		t.Fatal(err)
	}
	full := encodeWAL(rows...)
	recs, good, err := ReadLog(full)
	muts := slices.Concat(recs...)
	if err != nil || good != len(full) {
		t.Fatalf("decoded %d of %d bytes: %v", good, len(full), err)
	}
	if !reflect.DeepEqual(muts, rows) || muts[0].Table != "a" || muts[1].Table != "b" {
		t.Fatalf("decoded %+v", muts)
	}
	// Torn tail: drop the last byte; the first record still decodes.
	recs, good, err = ReadLog(full[:len(full)-1])
	if err != nil {
		t.Fatal(err)
	}
	if muts = slices.Concat(recs...); len(muts) != 1 || muts[0].Key != "k1" || good != len(encodeWAL(rows[0])) {
		t.Fatalf("torn-tail decode = %+v, good prefix %d", muts, good)
	}
}

// TestFeedStoreOverDurable runs the stream contract over a DurableStore
// inner: its snapshot is the same rows as a RowStore's, and a reopened
// store serves the identical state (the primary-recovery path).
func TestFeedStoreOverDurable(t *testing.T) {
	dir := t.TempDir()
	ds, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := NewFeedStore(ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Put("t", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	seq, snap, _, err := fs.SnapshotAndFollow(4)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 1 || len(snap) != 1 || string(snap[0].Value) != "v" {
		t.Fatalf("durable snapshot: seq %d, %+v", seq, snap)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	v, ok, err := re.Get("t", "k")
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("reopened durable: %q %v %v", v, ok, err)
	}
}
