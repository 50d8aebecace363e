package repl

import (
	"fmt"
	"testing"

	"bitdew/internal/db"
)

// feedShipper subscribes a bare shipper to a fresh feed, for cutting frames
// without a plane.
func feedShipper(t *testing.T, buf int) (*db.FeedStore, *db.Feed, *shipper) {
	t.Helper()
	feed, err := db.NewFeedStore(db.NewRowStore(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { feed.Close() })
	_, _, sub, err := feed.SnapshotAndFollow(buf)
	if err != nil {
		t.Fatal(err)
	}
	return feed, sub, &shipper{n: &Node{cfg: Config{Feed: feed}}}
}

// TestShipWholeWriteStraddlesCap: a write whose rows cross shipBatchMax
// ships whole in the frame that reaches the cap, and that frame ends with
// it; the next write opens the next frame.
func TestShipWholeWriteStraddlesCap(t *testing.T) {
	feed, sub, s := feedShipper(t, 2*shipBatchMax)
	for i := 0; i < shipBatchMax-1; i++ {
		if err := feed.Put("t", fmt.Sprint("k", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	write := make([]db.Mutation, 10)
	for i := range write {
		write[i] = db.Mutation{Op: 'P', Table: "t", Key: fmt.Sprint("w", i)}
	}
	if err := feed.Apply(write); err != nil {
		t.Fatal(err)
	}
	if err := feed.Put("t", "after", nil); err != nil {
		t.Fatal(err)
	}
	frame, last, next, held := s.cut(sub, <-sub.C(), nil)
	if len(frame) != shipBatchMax-1+len(write) || last != shipBatchMax {
		t.Fatalf("first frame: %d rows up to seq %d, want %d rows up to seq %d", len(frame), last, shipBatchMax-1+len(write), shipBatchMax)
	}
	if !held || next.Seq != shipBatchMax+1 || next.Key != "after" {
		t.Fatalf("the row met past the cap is %+v (held %v), want the put at seq %d", next, held, shipBatchMax+1)
	}
	if frame, last, _, held = s.cut(sub, next, nil); len(frame) != 1 || last != shipBatchMax+1 || held {
		t.Fatalf("second frame: %d rows up to seq %d, held %v", len(frame), last, held)
	}
}

// TestShipWholeWritesWhileFeeding cuts frames while a writer feeds batches:
// whichever moment a frame is cut, inside a write being fed included, every
// write it holds is whole.
func TestShipWholeWritesWhileFeeding(t *testing.T) {
	const writes, rows = 300, 7
	feed, sub, s := feedShipper(t, writes*rows)
	done := make(chan error, 1)
	go func() {
		for w := 0; w < writes; w++ {
			batch := make([]db.Mutation, rows)
			for i := range batch {
				batch[i] = db.Mutation{Op: 'P', Table: "t", Key: fmt.Sprint(w, "-", i)}
			}
			if err := feed.Apply(batch); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	var sent uint64
	var next db.Mutation
	held := false
	for frames := 0; sent < writes; frames++ {
		if !held {
			next = <-sub.C()
		}
		var frame []db.Mutation
		frame, sent, next, held = s.cut(sub, next, nil)
		for len(frame) > 0 {
			n := 0
			for n < len(frame) && frame[n].Seq == frame[0].Seq {
				n++
			}
			if n != rows {
				t.Fatalf("frame %d holds %d of write %d's %d rows", frames, n, frame[0].Seq, rows)
			}
			frame = frame[n:]
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
