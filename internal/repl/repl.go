// Package repl replicates each shard's key range onto its successor shards
// on the dht.Placement circle, primary/backup style, and drives automatic
// failover when a primary dies.
//
// BitDew's sharded D* service plane (runtime.ShardedContainer, PR 3) spreads
// catalog, repository and scheduler state across N independent containers;
// losing one container made its key range unreachable until an administrator
// intervened. The paper's descendants solved exactly this with replication —
// Sector/Sphere replicates user data across slave servers so a node loss
// costs nothing, and BlobSeer keeps versioned replicated metadata readable
// through churn (PAPERS.md). This package gives the plane the same property:
//
//   - Every shard wraps its live meta store in a db.FeedStore and SHIPS the
//     ordered mutation stream to the R-1 distinct successor shards of its
//     key range (dht.Placement.Successors) — a snapshot first, then the
//     tail, with acked sequence numbers and per-boot stream epochs. A
//     replica that misses mutations or sees a new epoch resynchronises from
//     a fresh snapshot instead of guessing.
//   - Replicas store shipped rows in a SEPARATE in-memory namespace (one
//     per source shard), never in their own live tables, so replica state
//     can never leak into a replica's own outbound stream and cascade.
//   - Content (repository payloads) is pulled, not pushed: a replica that
//     applies a locator row fetches the datum's bytes from the range's
//     members and stores them in its own backend, ready to serve the moment
//     it is promoted.
//   - On primary loss, the client-side failover router (core) asks the
//     first LIVE successor to Promote the range. Promotion probes every
//     earlier candidate (split-brain guard: a live earlier candidate always
//     wins), then atomically adopts the replicated rows into the live
//     store — re-feeding them, so they ship onward to the promoted shard's
//     own successors — and bumps the range's ownership epoch.
//   - A recovered shard asks its successors who owns its range BEFORE it
//     serves: if a successor promoted while it was down, it rejoins as a
//     replica (the owner adds it as an extra ship target) and its stale
//     rows are hidden by the ownership gate. There is no automatic
//     handback — ownership only moves when an owner dies — because handing
//     a range back would need every client to re-route without the death
//     signal they key on.
//
// The ownership gate (Node.GateUID, which the container installs over the
// catalog tables with db.NewGatedStore) is what makes rejoin
// split-brain-free: a shard refuses reads and writes for ranges it does not
// currently own with ErrNotOwner, which clients treat as a safe-to-retry
// redirect (the call was refused, never executed).
package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"bitdew/internal/db"
	"bitdew/internal/dht"
	"bitdew/internal/rpc"
)

// ServiceName is the rpc service the replication protocol is served under.
const ServiceName = "repl"

// TableOwner is the live-store table holding one ownership claim per range
// this shard serves: key = range id (decimal), value = 8-byte big-endian
// owner epoch. The rows ship in the feed like any other, so every replica
// knows which stream's claim on a range is newest — promotion picks the
// highest epoch and writes claim+1, giving ownership a total order that
// survives arbitrary kill/promote/rejoin interleavings.
const TableOwner = "repl_owner"

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

// Config wires a replication node into its container.
type Config struct {
	// Shard is this container's own shard index; Addrs is the full
	// membership table in placement order (Addrs[Shard] is our address).
	Shard int
	Addrs []string
	// Replicas is R: each range lives on its primary plus R-1 successors.
	Replicas int
	// Feed is the live meta store, feed-wrapped: every service write flows
	// through it and ships to the replicas. The node also uses it directly
	// (bypassing the ownership gate) to adopt rows at promotion.
	Feed *db.FeedStore
	// GatedTables are the UID-keyed live tables that replicate and that the
	// ownership gate protects (catalog data + locators).
	GatedTables []string
	// SchedulerTable is the UID-keyed scheduler persistence table; its rows
	// replicate like the gated ones but adoption goes through
	// AdoptScheduler so the in-memory scheduler state is rebuilt too.
	SchedulerTable string
	// ContentTable is the table whose Put records mean "this datum's
	// content is committed at the source" (catalog locators); applying one
	// on a replica triggers a content pull.
	ContentTable string
	// AdoptScheduler hands adopted scheduler rows (raw persisted entries,
	// keyed by UID) to the container's scheduler at promotion.
	AdoptScheduler func(rows map[string][]byte) error
	// GetContent / PutContent / HasContent bridge to the repository
	// backend: serving FetchContent to replicas, storing pulled content,
	// and skipping pulls for content already present.
	GetContent func(uid string) ([]byte, error)
	PutContent func(uid string, content []byte) error
	HasContent func(uid string) bool
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
	// Logf, when set, receives replication life-cycle events.
	Logf func(format string, args ...any)
}

// replicaState tracks one inbound stream (rows shipped TO us by source).
type replicaState struct {
	epoch  uint64
	last   uint64 // last applied sequence number
	synced bool
	tables map[string]bool // live tables seen, for wholesale resync
}

// Node is one shard's replication endpoint: it ships the shard's own feed
// to its successors, applies the streams shipped to it, answers ownership
// queries, and performs promotion and rejoin. Mount it on the container's
// Mux and Start it before the rpc server begins answering.
type Node struct {
	cfg          Config
	place        *dht.Placement
	rstore       *db.RowStore // replica namespaces: table "r<src>!<table>"
	probeTimeout time.Duration

	stop chan struct{}
	wg   sync.WaitGroup
	pull *puller

	mu        sync.Mutex
	serving   map[int]uint64 // range -> ownership epoch
	promoting map[int]bool
	replicas  map[int]*replicaState
	shippers  map[string]*shipper
	started   bool
	stopped   bool
}

// NewNode builds the replication node. The container must Mount it and,
// once every service is constructed, Start it (before serving rpc).
func NewNode(cfg Config) (*Node, error) {
	if cfg.Replicas < 2 {
		return nil, fmt.Errorf("repl: replication needs >= 2 replicas, got %d", cfg.Replicas)
	}
	if cfg.Shard < 0 || cfg.Shard >= len(cfg.Addrs) {
		return nil, fmt.Errorf("repl: shard %d outside membership of %d", cfg.Shard, len(cfg.Addrs))
	}
	if cfg.Feed == nil {
		return nil, fmt.Errorf("repl: nil feed store")
	}
	n := &Node{
		cfg:          cfg,
		place:        dht.NewPlacement(len(cfg.Addrs)),
		rstore:       db.NewRowStore(),
		probeTimeout: cfg.ProbeTimeout,
		stop:         make(chan struct{}),
		serving:      make(map[int]uint64),
		promoting:    make(map[int]bool),
		replicas:     make(map[int]*replicaState),
		shippers:     make(map[string]*shipper),
	}
	if n.probeTimeout <= 0 {
		n.probeTimeout = DefaultProbeTimeout
	}
	n.pull = newPuller(n)
	return n, nil
}

// Epoch returns this boot's stream epoch.
func (n *Node) Epoch() uint64 { return n.cfg.Feed.Epoch() }

// successors returns the replica set of rangeID under this plane's R.
func (n *Node) successors(rangeID int) []int {
	return n.place.Successors(rangeID, n.cfg.Replicas)
}

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
		n.adoptOwnRange()
	} else {
		n.bootCheck()
	}

	n.mu.Lock()
	for _, succ := range n.successors(n.cfg.Shard) {
		if succ != n.cfg.Shard {
			n.startShipperLocked(n.cfg.Addrs[succ])
		}
	}
	n.mu.Unlock()
	n.wg.Add(1)
	go n.pull.run()
}

// Stop terminates the shippers and puller and waits for them.
func (n *Node) Stop() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.stopped = true
	started := n.started
	n.mu.Unlock()
	close(n.stop)
	if started {
		n.wg.Wait()
	}
	n.rstore.Close()
}

// Serves reports whether this shard currently owns rangeID.
func (n *Node) Serves(rangeID int) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, ok := n.serving[rangeID]
	return ok
}

// ServingRanges returns the owned ranges and their ownership epochs.
func (n *Node) ServingRanges() map[int]uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[int]uint64, len(n.serving))
	for r, e := range n.serving {
		out[r] = e
	}
	return out
}

// GateUID is the per-key ownership gate: nil when uid's range is served
// here, ErrNotOwner otherwise. The scheduler consults it directly; the
// catalog tables sit behind it through db.NewGatedStore.
func (n *Node) GateUID(uid string) error {
	rangeID := n.place.ShardOf(uid)
	if n.Serves(rangeID) {
		return nil
	}
	return fmt.Errorf("%w: key %q homes on range %d", ErrNotOwner, uid, rangeID)
}

// nsTable maps a (source shard, live table) pair to its replica-namespace
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

// sleepStop waits d or until the node stops; false means stopped.
func (n *Node) sleepStop(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-n.stop:
		return false
	case <-t.C:
		return true
	}
}
