package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"bitdew/internal/attr"
	"bitdew/internal/data"
	"bitdew/internal/repository"
	"bitdew/internal/scheduler"
	"bitdew/internal/transfer"
)

// DefaultSyncPeriod is the reservoir host's pull period; the paper's
// stressed experiments synchronize with the scheduler every second.
const DefaultSyncPeriod = time.Second

// DefaultWaitTimeout bounds each SyncWait round's wait for in-flight
// transfers. Generous enough for the slowest protocol emulation in the
// experiment suite, but finite: a transfer wedged on a dead peer surfaces
// as an error instead of hanging the caller forever.
const DefaultWaitTimeout = 2 * time.Minute

// NodeConfig configures a volatile host.
type NodeConfig struct {
	// Host is the node's identity towards the scheduler. Required.
	Host string
	// Comms are the service connections of a single-host service plane.
	// Either Comms or Shards is required; Shards wins when both are set.
	Comms *Comms
	// Shards are the service connections of a sharded service plane
	// (ConnectSharded): the node heartbeats every shard's scheduler and
	// routes each datum's calls to its home shard.
	Shards *ShardSet
	// Backend is local storage (defaults to an in-memory backend, the
	// reservoir cache).
	Backend repository.Backend
	// SyncPeriod is the pull period (defaults to DefaultSyncPeriod).
	SyncPeriod time.Duration
	// Concurrency caps simultaneous transfers (defaults to 4).
	Concurrency int
}

// cacheEntry is one locally held datum with the attribute it arrived under.
type cacheEntry struct {
	d data.Data
	a attr.Attribute
}

// Node is a volatile host (client or reservoir) attached to the runtime
// services. It periodically pulls the Data Scheduler, reconciles its local
// cache with the returned set (keep / drop / fetch of Algorithm 1's Ψ),
// downloads new data out-of-band and fires data life-cycle events.
type Node struct {
	Host string

	set     *ShardSet
	backend repository.Backend
	engine  *transfer.Engine

	// BitDew, ActiveData and Transfers are the node's API instances.
	BitDew     *BitDew
	ActiveData *ActiveData
	Transfers  *TransferManager

	syncPeriod time.Duration
	// waitTimeout bounds each SyncWait round's wait for in-flight
	// transfers; zero means DefaultWaitTimeout. Tests shrink it to fail
	// fast instead of hanging on a wedged transfer.
	waitTimeout time.Duration

	mu       sync.Mutex
	cache    map[data.UID]cacheEntry
	inflight map[data.UID]bool
	// idle, while a SyncWait waits on it, is closed by whatever empties inflight.
	idle       chan struct{}
	lastErr    error
	clientOnly bool
	// syncMu serializes heartbeat rounds: the delta protocol is stateful
	// (each shard session's reported set + epoch must match that
	// scheduler's view), so the periodic loop and manual SyncOnce/SyncWait
	// callers must not interleave their reports. It is held only across
	// the report, never across the drop/fetch apply phase or its callbacks.
	syncMu sync.Mutex
	// sessions holds the delta-heartbeat state keyed by the PHYSICAL shard
	// whose scheduler acknowledged it, guarded by syncMu (not mu): the
	// subset of the cache that scheduler acknowledged, at which epoch. On
	// the key is the range's current owner in the round's view (the
	// home-shard index until a failover), so a failover retires the dead
	// shard's session and starts the promoted owner's fresh — whose first heartbeat is a full report, the delta
	// protocol's designed recovery. Each heartbeat ships only the
	// difference between the owner's current set and its session's
	// reported set, falling back to a full report when that scheduler
	// demands a resync (restart, lost ack). Shards fail independently: a
	// dead shard's heartbeat error never blocks the others' placements
	// from applying.
	sessions map[int]*shardSession
	// lastViewEpoch is the membership epoch the sessions were built
	// against (guarded by syncMu). When the plane commits a new
	// epoch, every shard's key ranges move, so the delta sessions restart
	// from full reports under the new placement.
	lastViewEpoch uint64

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// shardSession is one shard's delta-heartbeat state.
type shardSession struct {
	reported map[data.UID]bool
	epoch    uint64
	hasEpoch bool
}

// NewNode builds a volatile host from its configuration.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Host == "" {
		return nil, fmt.Errorf("core: node needs a host identity")
	}
	set := cfg.Shards
	if set == nil {
		if cfg.Comms == nil {
			return nil, fmt.Errorf("core: node needs service connections")
		}
		set = NewShardSet(cfg.Comms)
	}
	if cfg.Backend == nil {
		cfg.Backend = repository.NewMemBackend()
	}
	if cfg.SyncPeriod <= 0 {
		cfg.SyncPeriod = DefaultSyncPeriod
	}
	// The transfer engine reports each transfer to the DT service of the
	// datum's home shard, co-locating monitoring with the rest of the
	// datum's service state.
	engine := transfer.NewEngineRouted(cfg.Backend, func(uid data.UID) *transfer.Client {
		return set.For(uid).DT
	}, cfg.Host, cfg.Concurrency)
	n := &Node{
		Host:       cfg.Host,
		set:        set,
		backend:    cfg.Backend,
		engine:     engine,
		syncPeriod: cfg.SyncPeriod,
		cache:      make(map[data.UID]cacheEntry),
		inflight:   make(map[data.UID]bool),
		sessions:   make(map[int]*shardSession),
		stop:       make(chan struct{}),
	}
	n.BitDew = NewBitDewSharded(set, cfg.Backend, engine, cfg.Host)
	n.ActiveData = NewActiveDataSharded(set)
	n.ActiveData.node = n
	n.Transfers = NewTransferManager(engine)
	return n, nil
}

// Backend exposes the node's local storage.
func (n *Node) Backend() repository.Backend { return n.backend }

// SetClientOnly marks this node a client host: it asks for storage (its
// pinned data attract affinity-routed results) but never offers its own,
// so the scheduler skips it for replica and broadcast placement. Masters
// of master/worker applications run client-only (§3.1's client/reservoir
// distinction).
func (n *Node) SetClientOnly(v bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.clientOnly = v
}

// Cache lists the UIDs currently held (or being fetched) by this node.
func (n *Node) Cache() []data.UID {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]data.UID, 0, len(n.cache))
	for uid := range n.cache {
		out = append(out, uid)
	}
	return out
}

// Holds reports whether the datum is in the node's cache.
func (n *Node) Holds(uid data.UID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, ok := n.cache[uid]
	return ok
}

// LastErr returns the most recent pull-loop error (nil when healthy).
func (n *Node) LastErr() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.lastErr
}

// adoptLocal records a locally created datum (e.g. a pinned Collector) in
// the cache so synchronizations report it.
func (n *Node) adoptLocal(d data.Data, a attr.Attribute) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cache[d.UID] = cacheEntry{d: d, a: a}
}

// Start launches the periodic pull loop.
func (n *Node) Start() {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		ticker := time.NewTicker(n.syncPeriod)
		defer ticker.Stop()
		for {
			select {
			case <-n.stop:
				return
			case <-ticker.C:
				if err := n.SyncOnce(); err != nil {
					n.mu.Lock()
					n.lastErr = err
					n.mu.Unlock()
				}
			}
		}
	}()
}

// Stop halts the pull loop. The node can still be driven with SyncOnce.
func (n *Node) Stop() {
	n.stopOnce.Do(func() { close(n.stop) })
	n.wg.Wait()
}

// SyncOnce performs one pull-model synchronization as a delta heartbeat to
// every shard's scheduler: for each shard, report the adds and removes to
// the shard-homed slice of the cache since that session's acknowledged
// epoch (Δ of Δk, not the full set), then apply the merged answers. A host
// with a quiescent 10k-datum cache therefore heartbeats with empty payloads
// instead of reshipping 10k UIDs every period. When a scheduler cannot
// apply its delta (restart, epoch mismatch) it answers Resync and the node
// repeats that shard's heartbeat as a full report. Shards that answered are
// applied even when others failed (the error still reports the failures),
// so one dead shard never freezes placements on the survivors. Downloads
// are started asynchronously so heartbeats continue during long transfers;
// SyncWait additionally blocks until they land.
func (n *Node) SyncOnce() error {
	res, err := n.heartbeat()

	// Apply the answers outside syncMu, as the lock-free pre-delta code
	// did: life-cycle callbacks fired below may themselves drive the node
	// (a handler calling SyncWait must not self-deadlock).

	// Drop Δk \ Ψk: delete local copies and fire delete events.
	for _, uid := range res.Drop {
		n.mu.Lock()
		entry, ok := n.cache[uid]
		delete(n.cache, uid)
		n.mu.Unlock()
		n.backend.Delete(string(uid))
		if ok {
			n.ActiveData.fireDelete(Event{Data: entry.d, Attr: entry.a})
		}
	}

	// Fetch Ψk \ Δk.
	n.startFetches(res.Fetch)
	return err
}

// heartbeat runs the report half of one synchronization under syncMu: one
// delta heartbeat per physical shard, in parallel, each against its own
// session. The cache is grouped by each range's owner in the round's view —
// after a failover one physical shard may answer for several ranges, and
// must receive those ranges' data in one session — and the heartbeat goes
// through that range's slot so it keeps failing over mid-report. The merged result carries every successful shard's answer;
// the error joins the failed shards'.
func (n *Node) heartbeat() (scheduler.SyncDeltaResult, error) {
	n.syncMu.Lock()
	defer n.syncMu.Unlock()

	// Follow membership changes, then capture ONE view for the
	// whole round: grouping, sessions and reports all agree on a single
	// placement even when a rebalance commits mid-round.
	n.set.PollEpoch()
	v := n.set.currentView()
	if v.epoch != n.lastViewEpoch {
		// The membership changed: every shard's key ranges moved, so the
		// per-shard delta sessions describe slices that no longer exist.
		// Restart them — the next report per shard is a full one.
		n.sessions = make(map[int]*shardSession)
		n.lastViewEpoch = v.epoch
	}

	// The reported cache is the dataset this host manages: completed
	// copies plus in-flight downloads. Reporting in-flight data keeps the
	// scheduler's ownership heartbeats alive during transfers longer than
	// the failure-detection timeout.
	hosts := v.hosts()
	current := make(map[int]map[data.UID]bool, len(hosts)) // owner → its data
	for _, r := range hosts {
		current[v.owner[r]] = make(map[data.UID]bool)
	}
	n.mu.Lock()
	clientOnly := n.clientOnly
	for uid := range n.cache {
		current[v.owner[v.place.ShardOf(string(uid))]][uid] = true
	}
	for uid := range n.inflight {
		current[v.owner[v.place.ShardOf(string(uid))]][uid] = true
	}
	n.mu.Unlock()

	// Sessions of shards that currently own nothing (failed over, not yet
	// rejoined) are dead weight at best and would resurrect stale mirrors
	// at worst; drop them. Create missing ones here, single-threaded, so
	// the per-owner goroutines below never write the map.
	for owner := range n.sessions {
		if current[owner] == nil {
			delete(n.sessions, owner)
		}
	}
	for owner := range current {
		if n.sessions[owner] == nil {
			n.sessions[owner] = &shardSession{}
		}
	}

	var merged scheduler.SyncDeltaResult
	if len(hosts) == 1 {
		owner := v.owner[hosts[0]]
		res, err := n.heartbeatShard(owner, v.slots[hosts[0]], current[owner], clientOnly)
		if err != nil {
			return merged, err
		}
		return res, nil
	}

	errs := make([]error, 0, len(hosts))
	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	for _, r := range hosts {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			owner := v.owner[r]
			res, err := n.heartbeatShard(owner, v.slots[r], current[owner], clientOnly)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, err)
				return
			}
			merged.Drop = append(merged.Drop, res.Drop...)
			merged.Fetch = append(merged.Fetch, res.Fetch...)
		}(r)
	}
	wg.Wait()
	return merged, errors.Join(errs...)
}

// heartbeatShard runs one physical shard's delta heartbeat (with the
// full-report fallback) against its session, committing the acknowledged
// state on success. The report travels over the round's captured view of
// the range slot's connection so it benefits from failover routing. The
// caller holds syncMu and has created the session; each owner's session is
// touched only by its own goroutine.
func (n *Node) heartbeatShard(owner int, c *Comms, current map[data.UID]bool, clientOnly bool) (scheduler.SyncDeltaResult, error) {
	sess := n.sessions[owner]
	args := scheduler.SyncDeltaArgs{
		Host:       n.Host,
		Epoch:      sess.epoch,
		Full:       !sess.hasEpoch,
		ClientOnly: clientOnly,
	}
	if args.Full {
		for uid := range current {
			args.Added = append(args.Added, uid)
		}
	} else {
		for uid := range current {
			if !sess.reported[uid] {
				args.Added = append(args.Added, uid)
			}
		}
		for uid := range sess.reported {
			if !current[uid] {
				args.Removed = append(args.Removed, uid)
			}
		}
	}

	ds := c.DS
	res, err := ds.SyncDelta(args)
	if err != nil {
		return res, fmt.Errorf("core: sync %s: %w", n.Host, err)
	}
	// An epoch that did not advance past the one we reported against means
	// the scheduler restarted and some other report re-established our
	// session underneath us (a restarted scheduler normally answers Resync
	// outright, since delta sessions are deliberately not persisted).
	// Either way the server's mirror cannot be trusted: reconverge through
	// a full report.
	if !args.Full && !res.Resync && res.Epoch <= args.Epoch {
		res.Resync = true
	}
	if res.Resync {
		// The scheduler lost (or never had) our session: repeat as a full
		// report of the same snapshot.
		args.Full = true
		args.Epoch = 0
		args.Added = args.Added[:0]
		for uid := range current {
			args.Added = append(args.Added, uid)
		}
		args.Removed = nil
		if res, err = ds.SyncDelta(args); err != nil {
			return res, fmt.Errorf("core: sync %s: %w", n.Host, err)
		}
		if res.Resync {
			return res, fmt.Errorf("core: sync %s: scheduler refused full resync", n.Host)
		}
	}
	sess.reported = current
	sess.epoch = res.Epoch
	sess.hasEpoch = true
	return res, nil
}

// startFetches begins downloading a round's assignments not yet held or in
// flight: one FetchAll per transfer protocol, so the round costs each home
// shard one lookup and one DT report frame however many data it assigned.
func (n *Node) startFetches(assigned []scheduler.Assignment) {
	byProtocol := make(map[string][]scheduler.Assignment)
	n.mu.Lock()
	for _, as := range assigned {
		_, cached := n.cache[as.Data.UID]
		if cached || n.inflight[as.Data.UID] {
			continue
		}
		n.inflight[as.Data.UID] = true
		byProtocol[as.Attr.Protocol] = append(byProtocol[as.Attr.Protocol], as)
	}
	n.mu.Unlock()

	for protocol, group := range byProtocol {
		ds := make([]data.Data, 0, len(group))
		fetching := group[:0]
		for _, as := range group {
			// Empty slots (created but never filled, e.g. a Collector) have
			// no content to move: adopt them directly.
			if as.Data.Size == 0 && as.Data.Checksum == "" {
				n.landed(as, n.backend.Put(string(as.Data.UID), nil) == nil)
				continue
			}
			ds = append(ds, as.Data)
			fetching = append(fetching, as)
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			// Each datum's verdict arrives through the hook, as it lands.
			_ = n.BitDew.fetchAll(ds, protocol, func(i int, err error) {
				n.landed(fetching[i], err == nil)
			})
		}()
	}
}

// landed takes one assignment out of flight. When its content arrived it
// enters the cache and its copy event fires first, so a SyncWait that sees
// nothing in flight also sees every handler of the round returned (a copy
// handler must therefore not call SyncWait on its own node).
func (n *Node) landed(as scheduler.Assignment, ok bool) {
	if ok {
		n.mu.Lock()
		n.cache[as.Data.UID] = cacheEntry{d: as.Data, a: as.Attr}
		n.mu.Unlock()
		n.ActiveData.fireCopy(Event{Data: as.Data, Attr: as.Attr})
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.inflight, as.Data.UID)
	if len(n.inflight) == 0 && n.idle != nil {
		close(n.idle)
		n.idle = nil
	}
}

// SyncWait runs SyncOnce rounds until the node's cache is quiescent: no
// transfers in flight and a final round neither fetched nor dropped
// anything. It is the deterministic driver used by tests and examples: a
// round is over when its last fetch has landed and its copy handlers have
// returned. Each round's wait for in-flight transfers is bounded (DefaultWaitTimeout,
// shrinkable via the node's waitTimeout): a transfer wedged on a dead peer
// turns into an error here instead of a hung caller.
func (n *Node) SyncWait(rounds int) error {
	timeout := n.waitTimeout
	if timeout <= 0 {
		timeout = DefaultWaitTimeout
	}
	for i := 0; i < rounds; i++ {
		if err := n.SyncOnce(); err != nil {
			return err
		}
		// Wait for in-flight downloads from this round, up to the deadline:
		// the fetch that lands last closes idle.
		deadline := time.NewTimer(timeout)
		for {
			n.mu.Lock()
			busy := len(n.inflight)
			if busy > 0 && n.idle == nil {
				n.idle = make(chan struct{})
			}
			idle := n.idle
			n.mu.Unlock()
			if busy == 0 {
				break
			}
			select {
			case <-idle:
			case <-deadline.C:
				return fmt.Errorf("core: SyncWait round %d: %d transfer(s) still in flight after %v", i, busy, timeout)
			}
		}
		deadline.Stop()
	}
	return nil
}
