package db

import (
	"errors"
	"fmt"
	"sync"
)

// The mutation feed turns a Store into a shippable ordered stream: every
// write that flows through a FeedStore is assigned a monotonically
// increasing sequence number and its rows broadcast under it, and the full
// state can be cut as a snapshot that is atomic with respect to the
// sequence counter. A primary shard wraps its live store in a FeedStore and
// ships the stream to its replicas (internal/repl); the snapshot + tail is
// exactly the WAL-shipping protocol of the paper's replicated descendants
// (Sector/Sphere's replicated user data, BlobSeer's versioned metadata).
//
// Epochs: every FeedStore carries an epoch minted at construction. A
// restarted primary recovers its state from disk but NOT its in-memory
// sequence counter, so its stream restarts under a fresh epoch; a replica
// holding (epoch, seq) state for the old stream detects the mismatch and
// resynchronises from a snapshot instead of splicing two incommensurable
// sequence spaces together.

// Mutation is one row, on disk and on the wire: of the durable WAL or
// snapshot, and of the replication stream, where Seq is its write's
// position in the primary's stream. Seq is 0 on disk and inside snapshots (a
// snapshot is a bag of puts covered by the snapshot's own seq watermark).
type Mutation struct {
	Seq   uint64
	Op    byte // 'P' put, 'D' delete
	Table string
	Key   string
	Value []byte
}

// ErrFeedLost marks a subscription that fell further behind than its buffer:
// the subscriber must resynchronise from a fresh snapshot.
var ErrFeedLost = errors.New("db: feed subscription lost (buffer overflow)")

// rower is satisfied by stores that hand out their full state as puts
// (RowStore and DurableStore both qualify).
type rower interface {
	Rows() ([]Mutation, error)
}

// FeedStore wraps a Store, numbering and broadcasting every mutation. All
// reads and writes pass through to the inner store; writes additionally
// enter the feed. Writes performed directly on the inner store bypass the
// feed — the replication layer uses that deliberately for replica-namespace
// rows, which must never re-enter the primary stream.
type FeedStore struct {
	inner Store
	rows  rower
	epoch uint64

	mu     sync.Mutex
	seq    uint64
	subs   []*Feed
	closed bool
}

// NewFeedStore wraps inner, minting the stream's epoch. Inner must be able
// to snapshot its full state (RowStore or DurableStore).
func NewFeedStore(inner Store, epoch uint64) (*FeedStore, error) {
	rows, ok := inner.(rower)
	if !ok {
		return nil, fmt.Errorf("db: feed store needs a snapshottable inner store, got %T", inner)
	}
	return &FeedStore{inner: inner, rows: rows, epoch: epoch}, nil
}

// Epoch returns the stream epoch minted at construction.
func (f *FeedStore) Epoch() uint64 { return f.epoch }

// Seq returns the sequence number of the last write fed, all of whose rows
// are in every subscription's buffer by the time Seq returns.
func (f *FeedStore) Seq() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seq
}

// Inner returns the wrapped store. Writes through it bypass the feed.
func (f *FeedStore) Inner() Store { return f.inner }

// Apply writes the batch to the inner store, then feeds it: one sequence
// number, under which its rows go to each subscriber back to back. A
// subscriber whose buffer cannot take every row is dropped with
// ErrFeedLost before any is sent, so none ever receives part of a batch.
func (f *FeedStore) Apply(batch []Mutation) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	if err := f.inner.Apply(batch); err != nil || len(batch) == 0 {
		return err
	}
	f.seq++
	live := f.subs[:0]
	for _, s := range f.subs {
		if cap(s.ch)-len(s.ch) < len(batch) {
			s.drop(ErrFeedLost) // it resynchronises from a snapshot rather than stall the write path
			continue
		}
		for _, m := range batch { // cannot block: only this loop sends, under f.mu
			m.Seq = f.seq
			s.ch <- m
		}
		live = append(live, s)
	}
	f.subs = live
	return nil
}

func (f *FeedStore) Put(t, k string, v []byte) error { return ApplyRow(f, 'P', t, k, v) }
func (f *FeedStore) Delete(t, k string) error        { return ApplyRow(f, 'D', t, k, nil) }

func (f *FeedStore) Get(table, key string) ([]byte, bool, error) {
	return f.inner.Get(table, key)
}

func (f *FeedStore) Keys(table string) ([]string, error) { return f.inner.Keys(table) }

func (f *FeedStore) Scan(table string, fn func(key string, value []byte) bool) error {
	return f.inner.Scan(table, fn)
}

// Close ends the feed: every subscription channel is closed (with a nil
// Err) and further writes or SnapshotAndFollow calls fail with ErrClosed.
// The inner store is NOT closed — the feed is a wrapper, and ownership of
// the store stays with whoever opened it.
func (f *FeedStore) Close() error {
	f.mu.Lock()
	subs := f.subs
	f.subs = nil
	f.closed = true
	f.mu.Unlock()
	for _, s := range subs {
		s.drop(nil)
	}
	return nil
}

// SnapshotAndFollow atomically cuts a full-state snapshot and opens a
// subscription delivering every mutation after it: the snapshot covers
// sequence numbers up to the returned seq, and the subscription's first
// mutation (if any ever arrives) carries seq+1. The snapshot's values are
// the store's own: read them, never change them. buf bounds how far the
// subscriber may fall behind before the subscription is dropped with
// ErrFeedLost.
func (f *FeedStore) SnapshotAndFollow(buf int) (seq uint64, snapshot []Mutation, feed *Feed, err error) {
	if buf < 1 {
		buf = 1
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, nil, nil, ErrClosed
	}
	if snapshot, err = f.rows.Rows(); err != nil {
		return 0, nil, nil, fmt.Errorf("db: feed snapshot: %w", err)
	}
	feed = &Feed{ch: make(chan Mutation, buf), done: make(chan struct{})}
	f.subs = append(f.subs, feed)
	return f.seq, snapshot, feed, nil
}

// Unsubscribe removes one subscription from the feed and closes its
// channel (with a nil Err, like an orderly store close). A no-op for
// subscriptions already dropped. Mutations already buffered in the
// channel stay readable until the close is drained.
func (f *FeedStore) Unsubscribe(feed *Feed) {
	f.mu.Lock()
	live := f.subs[:0]
	for _, s := range f.subs {
		if s != feed {
			live = append(live, s)
		}
	}
	f.subs = live
	f.mu.Unlock()
	feed.drop(nil)
}

// Feed is one subscription to a FeedStore's mutation stream.
type Feed struct {
	ch chan Mutation

	mu   sync.Mutex
	err  error
	done chan struct{}
}

// C is the delivery channel: the rows of a write arrive back to back under
// its one Seq. It is closed when the subscription ends; check Err to
// distinguish a lost subscription from a closed store.
func (s *Feed) C() <-chan Mutation { return s.ch }

// Err reports why the subscription ended (ErrFeedLost after overflow, nil
// after an orderly close), meaningful once C is closed.
func (s *Feed) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

func (s *Feed) drop(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.done:
		return
	default:
	}
	s.err = err
	close(s.done)
	close(s.ch)
}
