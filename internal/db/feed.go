package db

import (
	"errors"
	"fmt"
	"sync"
)

// The mutation feed turns a Store into a shippable ordered stream: every
// Put/Delete that flows through a FeedStore is assigned a monotonically
// increasing sequence number and broadcast to subscribers, and the full
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

// Mutation is one record, on disk and on the wire: an entry of the durable
// WAL or snapshot, and of the replication stream, where Seq is its position
// in the primary's stream. Seq is 0 on disk and inside snapshots (a
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

// Seq returns the sequence number of the last mutation fed.
func (f *FeedStore) Seq() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seq
}

// Inner returns the wrapped store. Writes through it bypass the feed.
func (f *FeedStore) Inner() Store { return f.inner }

func (f *FeedStore) Put(table, key string, value []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	if err := f.inner.Put(table, key, value); err != nil {
		return err
	}
	f.seq++
	f.broadcastLocked(Mutation{Seq: f.seq, Op: 'P', Table: table, Key: key, Value: value})
	return nil
}

func (f *FeedStore) Delete(table, key string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	if err := f.inner.Delete(table, key); err != nil {
		return err
	}
	f.seq++
	f.broadcastLocked(Mutation{Seq: f.seq, Op: 'D', Table: table, Key: key})
	return nil
}

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

// broadcastLocked hands one mutation to every live subscription. A
// subscription whose buffer is full is dropped with ErrFeedLost — the
// subscriber resynchronises from a snapshot rather than stalling the
// primary's write path.
func (f *FeedStore) broadcastLocked(m Mutation) {
	live := f.subs[:0]
	for _, s := range f.subs {
		select {
		case s.ch <- m:
			live = append(live, s)
		default:
			s.drop(ErrFeedLost)
		}
	}
	f.subs = live
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

// C is the delivery channel. It is closed when the subscription ends;
// check Err to distinguish a lost subscription from a closed store.
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
