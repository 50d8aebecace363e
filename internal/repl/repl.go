// Package repl is the service plane's one range-ownership protocol: it says
// which shard serves which key range, replicates a range onto the shards
// that may have to take it over, and moves authority over a range between
// shards — because its owner died (failover) or because the membership
// changed (scale-out, drain). Both end in the same reassignment, so both run
// through the same three pieces: one stream, one sink, one adopt.
//
// The paper's descendants get node loss and data (re)placement out of one
// replicate-then-reassign mechanism — Sector/Sphere replicates user data
// across slave servers so a node loss costs nothing, BlobSeer keeps
// versioned replicated metadata readable through churn (PAPERS.md). Here:
//
//   - The stream. Every shard wraps its live meta store in a db.FeedStore; a
//     shipper cuts an atomic snapshot+subscription and SHIPS it to one
//     follower — the snapshot first (Sync), then the tail in batches (Apply)
//     that carry the sequence span they cover, with acked sequence numbers
//     and per-boot stream epochs. A follower that misses a span or sees a new
//     epoch resynchronises from a fresh snapshot instead of guessing. In
//     steady state a shard ships everything to the R-1 distinct successors
//     of its range (dht.Placement.Successors); a reshape ships only the
//     moving arcs (dht.Diff) to their new home.
//   - The sink. Followers store shipped rows in a SEPARATE in-memory
//     namespace (one per source shard), never in their own live tables, so
//     follower state can never leak into a follower's own outbound stream,
//     and rows staged for a change that is then aborted never become
//     visible. Content (repository payloads) is pulled, not pushed: a
//     follower that applies locator rows fetches the data's bytes from the
//     stream's source, a batch per frame, into its own backend, ready to
//     serve the moment it is promoted.
//   - The adopt. Promotion copies a namespace's rows for the range into the
//     live store — re-feeding them, so they ship onward to the new owner's
//     own successors — rebuilds scheduler state, and bumps the range's
//     ownership claim. Failover promotion (Promote) and a reshape target's
//     Commit both call it.
//
// Two triggers move a range. OWNER DIED: a client (core.ShardSet's owner
// search) asks the first LIVE successor to Promote the range; promotion
// probes every earlier candidate (split-brain guard: a live earlier
// candidate always wins). A recovered shard asks its successors who owns its
// range BEFORE it serves: if a successor promoted while it was down, it
// rejoins as a follower and its stale rows are hidden by the gate. There is
// no automatic handback. MEMBERSHIP CHANGED: Grow and Drain (coordinator.go)
// drive Stage / Cutover / Commit on every shard over one Client each —
// in-process for runtime.ShardedContainer, over TCP for `bitdew ring
// add/drain`. Stage makes each target a follower of the moving arcs while
// the source keeps serving; Cutover engages the source's departure gate and
// waits for the target's ack to reach the feed's sequence number (the gate
// precedes the barrier read, so no moving-key mutation can follow it);
// Commit adopts on the targets, swaps in the new membership (epoch,
// addresses, placement) everywhere, persists it — the node is the one holder
// of the committed membership, and serves it as ring/Members — and, once a
// source has verified its targets still hold the stream, garbage-collects
// rows that no longer home here. Moved
// repository content is deliberately NOT deleted from the source's backend:
// a client still fetching through a pre-bump cached locator reads the old
// copy byte-exact.
//
// The gate (Node.GateUID, installed over the catalog tables with
// db.NewGatedStore and over the scheduler) answers one question: is the
// key's range served here under the committed placement, and neither
// mid-departure nor staged-but-not-yet-adopted? Otherwise the operation is
// refused with ErrNotOwner before any state changes, which clients treat as
// a safe-to-retry redirect.
package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"bitdew/internal/codec"
	"bitdew/internal/db"
	"bitdew/internal/dht"
	"bitdew/internal/repository"
	"bitdew/internal/rpc"
)

// ServiceName is the rpc service the ownership protocol is served under.
const ServiceName = "repl"

// TableOwner is the live-store table holding one ownership claim per range
// this shard serves: key = range id (decimal), value = 8-byte big-endian
// owner epoch. The rows ship in the feed like any other, so every follower
// knows which stream's claim on a range is newest — promotion picks the
// highest epoch and writes claim+1, giving ownership a total order that
// survives arbitrary kill/promote/rejoin interleavings.
const TableOwner = "repl_owner"

// tableState persists the committed membership epoch and address list, so
// a restarted shard recovers the post-reshape membership instead of the one
// it was first booted with. (The name predates the merge of the rebalance
// package into this one; state dirs written then still recover.)
const (
	tableState = "rebal_state"
	stateKey   = "membership"
)

// ErrNotOwner is returned (and recognised across the wire by IsNotOwner)
// when a shard refuses an operation on a key range it does not currently
// own. The refusal happens before any state changes, so callers may always
// retry it elsewhere — unlike rpc.ErrDeadline, it never marks a
// possibly-executed call.
var ErrNotOwner = errors.New("repl: not owner of range")

// IsNotOwner reports whether err is an ownership refusal, including ones
// that crossed the wire as plain strings.
func IsNotOwner(err error) bool {
	if err == nil {
		return false
	}
	return errors.Is(err, ErrNotOwner) || strings.Contains(err.Error(), ErrNotOwner.Error())
}

// DefaultProbeTimeout bounds each liveness/ownership probe of a candidate
// shard. Probes are the failover-latency floor, so this is deliberately
// much shorter than core.DefaultCallTimeout: a candidate that cannot
// answer Owner in this window is treated as dead for this pass.
const DefaultProbeTimeout = 750 * time.Millisecond

// Config wires the ownership node into its container.
type Config struct {
	// Shard is this container's own shard index; Addrs is the boot
	// membership in placement order (Addrs[Shard] is our address). A
	// membership an earlier reshape committed and persisted overrides Addrs;
	// our own address stays Addrs[Shard].
	Shard int
	Addrs []string
	// Replicas is R: each range lives on its primary plus R-1 successors.
	// R <= 1 has no successors, so no steady-state shippers.
	Replicas int
	// Feed is the live meta store, feed-wrapped: every service write flows
	// through it and ships to the followers. The node also uses it directly
	// (bypassing the ownership gate) to adopt rows.
	Feed *db.FeedStore
	// GatedTables are the UID-keyed live tables the ownership gate protects
	// (catalog data + locators).
	GatedTables []string
	// SchedulerTable is the UID-keyed scheduler persistence table; its rows
	// ship like the gated ones but adoption goes through AdoptScheduler (and
	// garbage collection through DropScheduler) so the in-memory scheduler
	// state follows.
	SchedulerTable string
	// ContentTable is the table whose Put records mean "this datum's
	// content is committed at the source" (catalog locators); applying one
	// on a follower triggers a content pull.
	ContentTable   string
	AdoptScheduler func(rows map[string][]byte) error
	DropScheduler  func(batch []db.Mutation) error
	// Endpoints returns this shard's protocol → host:port repository
	// endpoints; a reshape rewrites moved locators from the source's to the
	// target's.
	Endpoints func() map[string]string
	// Content is the repository backend: it serves FetchContent to
	// followers, stores pulled content, and loses a datum's content when its
	// locator row's delete replicates.
	Content repository.Backend
	// DialOpts, when set, contributes extra dial options for every outbound
	// connection to the given address — the fault-injection hook the
	// crash-point tests script ship-cycle failures through.
	DialOpts func(addr string) []rpc.DialOption
	// ProbeTimeout overrides DefaultProbeTimeout (0 keeps the default).
	ProbeTimeout time.Duration
	// SkipBootCheck skips the who-owns-my-range probe at Start. Only a
	// caller that KNOWS the whole plane is booting fresh (no shard can have
	// promoted anything yet) may set it; restarts must always probe.
	SkipBootCheck bool
	// Logf, when set, receives ownership life-cycle events.
	Logf func(format string, args ...any)
}

// replicaState tracks one inbound stream (rows shipped TO us by source).
type replicaState struct {
	epoch  uint64
	last   uint64 // last sequence number covered
	synced bool
	tables map[string]bool // live tables seen, for wholesale resync
	addr   string          // the source's rpc address: where its content is
	// arcs marks a reshape's move stream: the arcs it is filtered to, gated
	// here until Commit adopts them. endpoints are the source's repository
	// endpoints, rewritten to ours at that adopt.
	arcs      []dht.Range
	endpoints map[string]string
}

// Node is one shard's ownership endpoint: it ships the shard's feed to its
// followers, applies the streams shipped to it, answers the gate and
// ownership queries, and performs promotion, rejoin and reshapes. Mount it
// on the container's Mux and Start it before the rpc server begins
// answering.
type Node struct {
	cfg        Config
	moveTables []string     // tables a move stream carries: gated + scheduler
	rstore     *db.RowStore // follower namespaces: table "r<src>!<table>"

	stop chan struct{}
	wg   sync.WaitGroup
	pull *puller

	mu        sync.Mutex
	epoch     uint64         // committed membership epoch (>= 1)
	addrs     []string       // committed membership, placement order; replaced, never written
	place     *dht.Placement // committed placement: len(addrs) shards
	serving   map[int]uint64 // range -> ownership claim
	promoting map[int]bool
	replicas  map[int]*replicaState
	shippers  map[string]*shipper
	departed  []dht.Range // cutover→commit window on a source
	inbound   []dht.Range // staged→commit window on a target: union of the move streams' arcs
	staged    *staging
	nsRows    []db.Mutation // applyLocked's batch, kept for the next
	started   bool
	stopped   bool
}

type persistedState struct {
	Epoch uint64
	Addrs []string
}

// NewNode builds the ownership node, recovering a previously committed
// membership epoch and address list from the store when present. The
// container must Mount it and, once every service is constructed, Start it
// (before serving rpc).
func NewNode(cfg Config) (*Node, error) {
	if cfg.Shard < 0 || cfg.Shard >= len(cfg.Addrs) {
		return nil, fmt.Errorf("repl: shard %d outside membership of %d", cfg.Shard, len(cfg.Addrs))
	}
	if cfg.Feed == nil || cfg.Content == nil {
		return nil, fmt.Errorf("repl: nil feed store or content backend")
	}
	n := &Node{
		cfg:        cfg,
		moveTables: append(append([]string(nil), cfg.GatedTables...), cfg.SchedulerTable),
		rstore:     db.NewRowStore(),
		stop:       make(chan struct{}),
		epoch:      1,
		addrs:      slices.Clone(cfg.Addrs),
		place:      dht.NewPlacement(len(cfg.Addrs)),
		serving:    make(map[int]uint64),
		promoting:  make(map[int]bool),
		replicas:   make(map[int]*replicaState),
		shippers:   make(map[string]*shipper),
	}
	if raw, ok, err := cfg.Feed.Get(tableState, stateKey); err == nil && ok {
		var st persistedState
		if err := codec.Unmarshal(raw, &st); err != nil {
			// A row of another format (a state directory an earlier commit
			// wrote) is refused, not skipped: booting at epoch 1 over a
			// reshaped plane's rows would misplace every one of them.
			return nil, fmt.Errorf("repl: shard %d: stored membership state: %w", cfg.Shard, err)
		}
		if st.Epoch > n.epoch && len(st.Addrs) >= 1 {
			if !slices.Equal(st.Addrs, cfg.Addrs) {
				n.logf("repl: shard %d: recovered epoch %d over %v, boot said %v — trusting the recovered membership",
					cfg.Shard, st.Epoch, st.Addrs, cfg.Addrs)
			}
			n.epoch, n.addrs, n.place = st.Epoch, st.Addrs, dht.NewPlacement(len(st.Addrs))
		}
	}
	if n.cfg.ProbeTimeout <= 0 {
		n.cfg.ProbeTimeout = DefaultProbeTimeout
	}
	n.pull = newPuller(n)
	return n, nil
}

// Epoch returns the committed membership epoch (1 for a never-reshaped
// plane).
func (n *Node) Epoch() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch
}

// successorsLocked returns the replica set of rangeID under the committed
// placement and this plane's R. A range the placement no longer has (a
// drained shard's own) lives nowhere else. Caller holds n.mu.
func (n *Node) successorsLocked(rangeID int) []int {
	if rangeID < 0 || rangeID >= n.place.Shards() {
		return []int{rangeID}
	}
	return n.place.Successors(rangeID, n.cfg.Replicas)
}

func (n *Node) successors(rangeID int) []int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.successorsLocked(rangeID)
}

// Members returns the committed membership table this shard serves under
// the ring service: its own index, the committed addresses, R and the
// epoch, read together.
func (n *Node) Members() dht.Membership {
	n.mu.Lock()
	defer n.mu.Unlock()
	return dht.Membership{Self: n.cfg.Shard, Addrs: slices.Clone(n.addrs), Replicas: n.cfg.Replicas, Epoch: n.epoch}
}

// addrOfLocked returns shard i's address in the committed membership ("" for
// a shard outside it, or one a joiner's boot list leaves blank until the
// reshape commits). Caller holds n.mu.
func (n *Node) addrOfLocked(i int) string {
	if i < 0 || i >= len(n.addrs) {
		return ""
	}
	return n.addrs[i]
}

func (n *Node) addrOf(i int) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.addrOfLocked(i)
}

// self is this shard's own boot address: a drained shard is outside the
// committed membership and still answers there.
func (n *Node) self() string { return n.cfg.Addrs[n.cfg.Shard] }

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

// Start runs the boot-time ownership check (unless SkipBootCheck), then
// starts the shippers to this shard's successors and the content puller.
// Call it after every service is built and BEFORE the rpc server answers:
// the ordering is part of the split-brain argument — a restarting shard
// resolves who owns its range before any peer or client can observe it
// alive.
func (n *Node) Start() {
	n.mu.Lock()
	if n.started || n.stopped {
		n.mu.Unlock()
		return
	}
	n.started = true
	n.mu.Unlock()

	if n.cfg.SkipBootCheck {
		// The whole plane is starting together, so nobody can have promoted
		// anything — each shard takes its home range, keeping any claim
		// recovered from disk.
		n.adopt(n.cfg.Shard, false)
	} else {
		for _, r := range n.claimedRanges() {
			n.bootResolveRange(r)
		}
	}
	n.mu.Lock()
	n.shipToLocked(n.cfg.Shard)
	n.mu.Unlock()
	n.wg.Add(1)
	go n.pull.run()
}

// Stop aborts any staged reshape, terminates the shippers and puller and
// waits for them.
func (n *Node) Stop() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.stopped = true
	started := n.started
	n.mu.Unlock()
	n.Abort()
	close(n.stop)
	n.mu.Lock()
	for _, s := range n.shippers {
		s.client.Close() // wakes a call sleeping out its redial backoff
	}
	n.mu.Unlock()
	if started {
		n.wg.Wait()
	}
	n.rstore.Close()
}

// GateUID is the per-key ownership gate: nil when uid's range is served
// here under the committed placement and uid is neither mid-departure (a
// source between Cutover and Commit) nor staged but not yet adopted (a
// target before Commit); ErrNotOwner otherwise. The scheduler consults it
// directly; the catalog tables sit behind it through db.NewGatedStore.
func (n *Node) GateUID(uid string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.departed)+len(n.inbound) > 0 {
		id := dht.HashID(uid)
		if onAny(n.departed, id) {
			return fmt.Errorf("%w: key %q departed this shard (epoch %d reshape)", ErrNotOwner, uid, n.epoch)
		}
		if onAny(n.inbound, id) {
			return fmt.Errorf("%w: key %q is staged here but not yet adopted (epoch %d)", ErrNotOwner, uid, n.epoch)
		}
	}
	rangeID := n.place.ShardOf(uid)
	if _, ok := n.serving[rangeID]; ok {
		return nil
	}
	return fmt.Errorf("%w: key %q homes on range %d (epoch %d)", ErrNotOwner, uid, rangeID, n.epoch)
}

// onAny reports whether id lies on one of arcs.
func onAny(arcs []dht.Range, id dht.ID) bool {
	return slices.ContainsFunc(arcs, func(r dht.Range) bool { return r.Contains(id) })
}

// nsTable maps a (source shard, live table) pair to its follower-namespace
// table in rstore.
func nsTable(src int, table string) string {
	return "r" + strconv.Itoa(src) + "!" + table
}

// ownerKey is the TableOwner row key of a range.
func ownerKey(rangeID int) string { return strconv.Itoa(rangeID) }

func encodeClaim(epoch uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], epoch)
	return b[:]
}

func decodeClaim(v []byte) uint64 {
	if len(v) != 8 {
		return 0
	}
	return binary.BigEndian.Uint64(v)
}

// dialOpts assembles the dial options for an outbound connection to addr:
// a call timeout (every loop that ships or probes must be bounded) plus the
// test hook's injected options.
func (n *Node) dialOpts(addr string, timeout time.Duration) []rpc.DialOption {
	opts := []rpc.DialOption{rpc.WithCallTimeout(timeout)}
	if n.cfg.DialOpts != nil {
		opts = append(opts, n.cfg.DialOpts(addr)...)
	}
	return opts
}

// signal wakes the goroutine receiving from c; one already pending suffices.
func signal(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

// sleepStop waits d or until stop closes; false means stopped.
func sleepStop(stop <-chan struct{}, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-stop:
		return false
	case <-t.C:
		return true
	}
}
