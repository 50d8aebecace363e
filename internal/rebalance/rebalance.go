// Package rebalance grows and shrinks the sharded D* service plane under
// live traffic: an AddShard/DrainShard protocol that streams the moving
// key ranges — catalog rows, scheduler entries, repository content — to
// their new home while the old shard keeps serving, then cuts ownership
// over atomically per range and epoch-bumps the membership table.
//
// The protocol composes two things the plane already has. dht.Placement is
// growth-monotone (n → n+1 moves keys only onto the new shard), so
// dht.Diff computes the exact moving arcs from the old and new placements
// alone. db.FeedStore already turns a shard's store into an ordered
// snapshot+tail mutation stream (PR 9's replication shipper); rebalance
// reuses it to ship exactly the rows whose key hashes into a moving arc.
//
// Three phases, driven per source shard by Grow and Drain (coordinator.go)
// over one Client per shard — in-process for runtime.ShardedContainer, over
// TCP for `bitdew ring add/drain`:
//
//   - Stage: compute this shard's outbound moves from Diff(old, new), cut
//     an atomic snapshot+subscription of the feed, and Install the moving
//     rows on their targets — content bytes ride inline with locator rows,
//     whose hosts are rewritten to the target's own endpoints. The source
//     keeps serving; writes landing during the push are drained from the
//     subscription tail. Installed rows stay INVISIBLE on the target until
//     commit: its ownership guard hides keys it does not yet own.
//   - Cutover: engage the departure gate (moving keys now answer
//     repl.ErrNotOwner — refused before execution, so clients retry them
//     on the new owner), then drain the subscription to the feed's current
//     sequence number. Because the gate precedes the barrier, no moving-key
//     mutation can follow it: the target is exactly caught up.
//   - Commit: adopt the new placement and epoch, clear the gate, persist
//     the state, garbage-collect rows that no longer home here, and
//     publish the new membership table (OnCommit). Clients notice the
//     epoch bump via the ring table, rebuild their shard set, and flush
//     their locator caches.
//
// Moved repository content is deliberately NOT deleted from the source's
// backend: a client still fetching through a pre-bump cached locator reads
// the old copy byte-exact, which is what makes scale-out invisible to
// readers. Scheduler entries moved away stay in the source's in-memory Θ
// behind the gate (sync rounds answer non-committal Keeps) until the
// commit-time GC unschedules them — workers never observe a Drop for a
// datum that merely changed shards.
//
// Replicated planes (R > 1) move ranges through repl's ownership protocol,
// not this one: their containers mount no rebalance node.
package rebalance

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"
	"time"

	"bitdew/internal/db"
	"bitdew/internal/dht"
	"bitdew/internal/repl"
	"bitdew/internal/rpc"
)

// ServiceName is the rpc service the rebalancing protocol is served under.
const ServiceName = "rebal"

// tableState persists the committed membership epoch and shard count, so a
// restarted shard recovers the post-rebalance placement instead of the one
// it was first booted with.
const (
	tableState = "rebal_state"
	stateKey   = "membership"
)

const (
	// stageBuffer is the feed subscription depth for a migration; writes
	// landing while the snapshot pushes must fit or the stage fails
	// (db.ErrFeedLost) and is re-run.
	stageBuffer = 8192
	// installBatchMax bounds rows per Install frame; installBytesMax bounds
	// the inline content riding along, so big payloads chunk into several
	// frames instead of one giant one.
	installBatchMax = 256
	installBytesMax = 4 << 20
	// stageCallTimeout bounds each Install round trip (content rides
	// inline, so this is generous).
	stageCallTimeout = 30 * time.Second
	// cutoverDrainTimeout bounds the cutover's drain-to-barrier: the tail
	// is already buffered locally when the barrier is read, so this only
	// guards against a wedged target.
	cutoverDrainTimeout = 60 * time.Second
)

// Config wires a rebalance node into its container.
type Config struct {
	// Self is this container's shard index; Shards the plane's shard count
	// at boot. A persisted state row from an earlier rebalance overrides
	// Shards at construction.
	Self   int
	Shards int
	// Feed is the live meta store, feed-wrapped: every service write flows
	// through it (behind the GateKey gate), and migrations snapshot+follow
	// it. The node writes incoming rows directly to it, beneath the gate.
	Feed *db.FeedStore
	// Tables are the UID-keyed catalog tables that migrate (catalog data +
	// locators) — the ones the container gates with GateKey.
	Tables []string
	// SchedulerTable is the UID-keyed scheduler persistence table; its rows
	// migrate through AdoptScheduler/DropScheduler so the target's
	// in-memory scheduler state is rebuilt too.
	SchedulerTable string
	// ContentTable is the table whose rows carry locator lists (catalog
	// locators): migrating one ships the datum's repository content inline
	// and rewrites source-endpoint hosts to this shard's own.
	ContentTable string
	// Endpoints returns this shard's protocol → host:port repository
	// endpoints (for locator rewriting on both ends of a move).
	Endpoints func() map[string]string
	// GetContent / PutContent / HasContent bridge to the repository
	// backend.
	GetContent func(uid string) ([]byte, error)
	PutContent func(uid string, content []byte) error
	HasContent func(uid string) bool
	// AdoptScheduler installs migrated scheduler rows as live state;
	// DropScheduler unschedules a datum that moved away (ghost-tolerant).
	AdoptScheduler func(rows map[string][]byte) error
	DropScheduler  func(uid string) error
	// OnCommit, when set, observes every committed membership change —
	// the runtime publishes it through the ring table.
	OnCommit func(epoch uint64, addrs []string)
	// DialOpts, when set, contributes extra dial options for outbound
	// connections (fault-injection hook).
	DialOpts func(addr string) []rpc.DialOption
	// Logf, when set, receives rebalance life-cycle events.
	Logf func(format string, args ...any)
}

// Node is one shard's rebalancing endpoint: it answers the ownership gate
// in steady state, stages and cuts over outbound migrations as a source,
// and installs inbound rows as a target. Mount it on the container's Mux.
type Node struct {
	cfg      Config
	migrated map[string]bool // feed-filtered tables (catalog + scheduler)

	mu       sync.Mutex
	epoch    uint64
	place    *dht.Placement
	departed []dht.Range // cutover→commit window: moving arcs refuse with ErrNotOwner
	pending  *migration
	stopped  bool
}

type persistedState struct {
	Epoch  uint64
	Shards int
}

// NewNode builds the rebalance node, recovering a previously committed
// epoch and shard count from the store when present.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("rebalance: plane of %d shards", cfg.Shards)
	}
	if cfg.Self < 0 || cfg.Self >= cfg.Shards {
		return nil, fmt.Errorf("rebalance: shard %d outside plane of %d", cfg.Self, cfg.Shards)
	}
	if cfg.Feed == nil {
		return nil, fmt.Errorf("rebalance: nil feed store")
	}
	n := &Node{
		cfg:      cfg,
		migrated: make(map[string]bool, len(cfg.Tables)+1),
		epoch:    1,
		place:    dht.NewPlacement(cfg.Shards),
	}
	for _, t := range cfg.Tables {
		n.migrated[t] = true
	}
	if cfg.SchedulerTable != "" {
		n.migrated[cfg.SchedulerTable] = true
	}
	if raw, ok, err := cfg.Feed.Get(tableState, stateKey); err == nil && ok {
		var st persistedState
		if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&st); err == nil && st.Epoch > n.epoch && st.Shards >= 1 {
			if st.Shards != cfg.Shards {
				n.logf("rebalance: shard %d: recovered epoch %d places over %d shards, boot said %d — trusting the recovered state",
					cfg.Self, st.Epoch, st.Shards, cfg.Shards)
			}
			n.epoch = st.Epoch
			n.place = dht.NewPlacement(st.Shards)
		}
	}
	return n, nil
}

// Epoch returns the committed membership epoch (1 for a never-rebalanced
// plane).
func (n *Node) Epoch() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch
}

// Shards returns the committed placement's shard count.
func (n *Node) Shards() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.place.Shards()
}

// Stop aborts any staged migration and releases its connections.
func (n *Node) Stop() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.stopped = true
	n.mu.Unlock()
	n.Abort()
}

// GateKey is the per-key ownership gate: nil when key currently homes on
// this shard AND is not mid-departure, repl.ErrNotOwner otherwise — the
// same refused-before-executed contract clients already retry on.
func (n *Node) GateKey(key string) error {
	id := dht.HashID(key)
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, r := range n.departed {
		if r.Contains(id) {
			return fmt.Errorf("%w: key %q departed this shard (epoch %d rebalance)", repl.ErrNotOwner, key, n.epoch)
		}
	}
	if owner := n.place.ShardOf(key); owner != n.cfg.Self {
		return fmt.Errorf("%w: key %q homes on shard %d (epoch %d)", repl.ErrNotOwner, key, owner, n.epoch)
	}
	return nil
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

// dialOpts assembles the dial options for an outbound connection to addr.
func (n *Node) dialOpts(addr string, timeout time.Duration) []rpc.DialOption {
	opts := []rpc.DialOption{rpc.WithCallTimeout(timeout)}
	if n.cfg.DialOpts != nil {
		opts = append(opts, n.cfg.DialOpts(addr)...)
	}
	return opts
}

func (n *Node) persistState(epoch uint64, shards int) {
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(persistedState{Epoch: epoch, Shards: shards}); err != nil {
		n.logf("rebalance: shard %d: encoding state: %v", n.cfg.Self, err)
		return
	}
	// Through Inner: membership state is local bookkeeping, not a row that
	// should ever enter a migration stream.
	if err := n.cfg.Feed.Inner().Put(tableState, stateKey, b.Bytes()); err != nil {
		n.logf("rebalance: shard %d: persisting state: %v", n.cfg.Self, err)
	}
}
