package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"bitdew/internal/data"
	"bitdew/internal/dht"
	"bitdew/internal/repl"
	"bitdew/internal/rpc"
)

// ShardSet is the client side of a sharded D* service plane: one Comms per
// service container, plus the consistent-hash placement (dht.Placement)
// that assigns every datum a home shard by its UID. All catalog, repository
// and scheduler state of a datum lives on its home shard, so single-datum
// calls route to one shard and batch calls fan out per shard in parallel.
//
// A ShardSet over one shard is exactly the pre-sharding client: every datum
// homes on shard 0 and the fan-out degenerates to the plain batch path. The
// set also carries a bounded client-side locator cache shared by the node's
// APIs, so repeat lookups of the same datum skip the wire entirely.
//
// Over an ELASTIC plane (unreplicated) the membership can change while the
// client runs: AddShard/DrainShard commit a new address list at a bumped
// epoch. The set then swaps in a new immutable view — reusing the
// connections of unchanged shards, flushing the locator cache — and the call
// paths retry not-owner refusals through a refresh, so a reshape is
// invisible to the application.
type ShardSet struct {
	mu   sync.Mutex
	view *shardView

	cache *locatorCache
	// router, when non-nil, makes the shards slots RANGE slots over a
	// replicated plane: slot i forwards to whichever shard currently owns
	// range i, failing over when it dies (see failover.go). Nil over an
	// unreplicated plane, where slot i IS shard i.
	router *failoverRouter

	// dial, when non-nil, marks the plane elastic: it builds the connection
	// of a shard that joined after connect time. Nil sets (local Comms,
	// replicated planes) never change membership.
	dial func(addr string) *Comms
	// orphans holds connections dropped from the view by a membership
	// change; they stay open (in-flight calls, stale-locator reads against
	// a drained shard) until Close.
	orphans    []*Comms
	refreshing bool
	closed     bool
	lastPoll   time.Time
	pollIdx    int
}

// shardView is one immutable membership view: every call path captures a
// view once and works against it, so a concurrent membership swap can never
// tear a fan-out between two placements.
type shardView struct {
	epoch  uint64
	addrs  []string
	shards []*Comms
	place  *dht.Placement
}

// epochPollPeriod throttles the node heartbeat's membership poll: at most
// one tiny ring/Members frame per period, round-robin across shards.
const epochPollPeriod = 500 * time.Millisecond

// Elastic retry budget: a rebalance cutover-to-commit window is
// milliseconds, so a handful of refresh-and-retry passes rides any one
// membership change; the backoff keeps a confused client from hammering.
const (
	elasticRetryPasses  = 10
	elasticRetryBackoff = 200 * time.Millisecond
)

// ShardOption configures ConnectSharded.
type ShardOption func(*shardOptions)

type shardOptions struct {
	replicas int
}

// WithReplicas tells the client the plane's replication factor R (from its
// -replicas flag or the ring membership table). With R > 1 every range slot
// routes around dead shards: calls failing at the transport level or
// refused as not-owner are retried against the range's promoted successor.
// Deadline errors are never retried — the call may have executed.
func WithReplicas(r int) ShardOption {
	return func(o *shardOptions) { o.replicas = r }
}

// ParseMembership splits a comma-separated shard address list, trimming
// blanks and dropping duplicate addresses (keeping the first occurrence —
// a doubled address would give one host two placement slots and split its
// data across phantom shards). The membership list is the placement
// contract (its order decides every datum's home shard), so every client
// and server must parse it the same way — this is the one parser they all
// share.
func ParseMembership(s string) []string {
	var out []string
	seen := make(map[string]bool)
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" && !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}

// ConnectSharded dials every shard of a service plane over TCP, in the
// given membership order — the order is the placement contract, so every
// client (and the shards' own tooling) must use the same list. Each
// connection reconnects itself like Connect's. A shard that is down AT
// CONNECT TIME does not abort the join: its connection is built lazily
// (rpc.DialAutoLazy) and heals when the shard restarts, so a new client
// can attach to a degraded plane exactly as an old client rides through
// the degradation. Only a plane with EVERY shard unreachable refuses the
// connect.
//
// With WithReplicas(R>1) the connections become failover-aware range slots
// instead of fixed per-shard links (see failover.go). Without it the set is
// elastic: it follows committed AddShard/DrainShard membership changes.
func ConnectSharded(addrs []string, opts ...ShardOption) (*ShardSet, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("core: connect sharded: empty membership")
	}
	var o shardOptions
	for _, opt := range opts {
		opt(&o)
	}
	if o.replicas > len(addrs) {
		o.replicas = len(addrs)
	}
	if o.replicas > 1 {
		return connectFailover(addrs, o.replicas)
	}
	shards := make([]*Comms, 0, len(addrs))
	var dialErrs []error
	for i, addr := range addrs {
		c, err := Connect(addr)
		if err != nil {
			dialErrs = append(dialErrs, fmt.Errorf("core: connect shard %d of %d: %w", i, len(addrs), err))
			c = commsFrom(rpc.DialAutoLazy(addr, rpc.WithCallTimeout(DefaultCallTimeout)))
		}
		shards = append(shards, c)
	}
	if len(dialErrs) == len(addrs) {
		for _, s := range shards {
			s.Close()
		}
		return nil, errors.Join(dialErrs...)
	}
	set := NewShardSet(shards...)
	set.view.addrs = append([]string(nil), addrs...)
	set.dial = func(addr string) *Comms {
		return commsFrom(rpc.DialAutoLazy(addr, rpc.WithCallTimeout(DefaultCallTimeout)))
	}
	// Learn the plane's membership epoch up front (best-effort): a client
	// handed yesterday's address list converges on the committed membership
	// right here, and the locator cache learns which epoch its entries
	// resolve under so a later bump flushes them.
	set.Refresh()
	return set, nil
}

// connectFailover builds the replicated-plane client: one shared router
// over the physical shard connections, and one failoverClient-backed Comms
// per key range. Like the unreplicated connect, it only refuses when the
// whole plane is unreachable.
func connectFailover(addrs []string, replicas int) (*ShardSet, error) {
	var dialErrs []error
	reachable := false
	for i, addr := range addrs {
		c, err := rpc.Dial(addr, rpc.WithCallTimeout(failoverProbeTimeout))
		if err == nil {
			c.Close()
			reachable = true
			break
		}
		dialErrs = append(dialErrs, fmt.Errorf("core: connect shard %d of %d: %w", i, len(addrs), err))
	}
	if !reachable {
		return nil, errors.Join(dialErrs...)
	}
	router := newFailoverRouter(addrs, replicas)
	shards := make([]*Comms, len(addrs))
	for i := range shards {
		shards[i] = commsFrom(&failoverClient{r: router, rangeID: i})
	}
	set := NewShardSet(shards...)
	set.router = router
	// A promotion moves a range's rows to another physical host, so cached
	// locator endpoints of that range may now be dead — drop them and let
	// the next fetch re-resolve through the promoted owner.
	router.onReroute = func(rangeID, _ int) {
		set.cache.invalidateRange(set.currentView().place, rangeID)
	}
	return set, nil
}

// NewShardSet assembles a shard router over already-connected Comms (TCP,
// local, or mixed), in membership order.
func NewShardSet(shards ...*Comms) *ShardSet {
	if len(shards) == 0 {
		panic("core: shard set over zero shards")
	}
	return &ShardSet{
		view: &shardView{
			shards: shards,
			place:  dht.NewPlacement(len(shards)),
		},
		cache: newLocatorCache(defaultLocatorCacheSize),
	}
}

// shardSetOf wraps a single service connection as a degenerate one-shard
// set — the adapter that keeps the pre-sharding Comms constructors working.
func shardSetOf(c *Comms) *ShardSet { return NewShardSet(c) }

// currentView returns the membership view to run one operation against.
func (s *ShardSet) currentView() *shardView {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.view
}

// elastic reports whether this set follows membership changes.
func (s *ShardSet) elastic() bool { return s.dial != nil && s.router == nil }

// Epoch returns the membership epoch of the current view (0 until the
// plane's epoch has been learned, and always on sets that do not follow
// membership changes).
func (s *ShardSet) Epoch() uint64 { return s.currentView().epoch }

// N returns the number of shards.
func (s *ShardSet) N() int { return len(s.currentView().shards) }

// ShardOf returns the index of uid's home shard.
func (s *ShardSet) ShardOf(uid data.UID) int {
	return s.currentView().place.ShardOf(string(uid))
}

// For returns the service connection of uid's home shard.
func (s *ShardSet) For(uid data.UID) *Comms {
	v := s.currentView()
	return v.shards[v.place.ShardOf(string(uid))]
}

// Shard returns the i-th shard's connection.
func (s *ShardSet) Shard(i int) *Comms { return s.currentView().shards[i] }

// Shards returns the shard connections in membership order. The slice is
// shared; do not mutate it.
func (s *ShardSet) Shards() []*Comms { return s.currentView().shards }

// OwnerOf returns the physical shard currently serving range i: i itself on
// an unreplicated plane, possibly a promoted successor on a replicated one.
// Callers that fan out per shard use it to visit each live host once.
func (s *ShardSet) OwnerOf(i int) int {
	if s.router == nil {
		return i
	}
	return s.router.ownerOf(i)
}

// RoundTrips sums the request frames sent to every shard.
func (s *ShardSet) RoundTrips() uint64 {
	if s.router != nil {
		// Range slots share the router's physical connections; counting
		// per-slot would double-count shared frames, so ask the router once.
		return s.router.RoundTrips()
	}
	s.mu.Lock()
	conns := append([]*Comms(nil), s.view.shards...)
	conns = append(conns, s.orphans...)
	s.mu.Unlock()
	var total uint64
	for _, c := range conns {
		total += c.RoundTrips()
	}
	return total
}

// LocatorCacheStats reports the client-side locator cache's hits and misses
// since connect; benchmarks and tests use it to show repeat lookups skip
// the wire.
func (s *ShardSet) LocatorCacheStats() (hits, misses uint64) {
	return s.cache.stats()
}

// Close releases every shard connection (including connections orphaned by
// membership changes), returning the first error.
func (s *ShardSet) Close() error {
	s.mu.Lock()
	conns := append([]*Comms(nil), s.view.shards...)
	conns = append(conns, s.orphans...)
	s.orphans = nil
	s.closed = true
	s.mu.Unlock()
	var first error
	for _, c := range conns {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// fetchRing reads the membership table one shard serves.
func fetchRing(c *Comms) (dht.Membership, error) {
	var t dht.Membership
	calls := []*rpc.Call{rpc.NewCall("ring", "Members", struct{}{}, &t)}
	if err := c.CallBatch(calls); err != nil {
		return t, err
	}
	return t, calls[0].Err
}

// Refresh re-reads the membership table from the plane and adopts it when
// it carries a newer epoch, rebuilding the view around the new address
// list: connections of unchanged shards are reused, departed ones are
// orphaned (kept open), joined ones are dialed, and the locator cache is
// flushed. Returns true when the view changed. No-op (false) on static
// planes and while another refresh is in flight.
func (s *ShardSet) Refresh() bool {
	s.mu.Lock()
	if !s.elastic() || s.closed || s.refreshing {
		s.mu.Unlock()
		return false
	}
	s.refreshing = true
	v := s.view
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.refreshing = false
		s.mu.Unlock()
	}()
	for _, c := range v.shards {
		t, err := fetchRing(c)
		if err != nil {
			continue
		}
		return s.adoptTable(t)
	}
	return false
}

// PollEpoch is the heartbeat-path membership probe: at most once per
// epochPollPeriod it asks one shard (round-robin) for the ring table and
// adopts any newer epoch.
func (s *ShardSet) PollEpoch() {
	s.mu.Lock()
	if !s.elastic() || s.closed || time.Since(s.lastPoll) < epochPollPeriod {
		s.mu.Unlock()
		return
	}
	s.lastPoll = time.Now()
	v := s.view
	idx := s.pollIdx % len(v.shards)
	s.pollIdx++
	s.mu.Unlock()
	t, err := fetchRing(v.shards[idx])
	if err == nil {
		s.adoptTable(t)
	}
}

// adoptTable swaps in a view built from a fetched membership table when the
// table is newer than the current view. Returns true when the view changed.
func (s *ShardSet) adoptTable(t dht.Membership) bool {
	if len(t.Addrs) == 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.view
	if s.closed || t.Epoch <= v.epoch {
		return false
	}
	if v.epoch == 0 && sameAddrs(v.addrs, t.Addrs) {
		// First contact with an elastic plane: learn the epoch without
		// rebuilding (the view already matches) or flushing the cache.
		s.view = &shardView{epoch: t.Epoch, addrs: v.addrs, shards: v.shards, place: v.place}
		s.cache.setEpoch(t.Epoch)
		return false
	}
	shards := make([]*Comms, len(t.Addrs))
	for i, addr := range t.Addrs {
		if i < len(v.addrs) && v.addrs[i] == addr {
			shards[i] = v.shards[i]
		} else {
			shards[i] = s.dial(addr)
		}
	}
	for i, c := range v.shards {
		if i >= len(shards) || shards[i] != c {
			// Dropped from the view, not closed: in-flight calls and reads
			// against retained content on a drained shard still complete.
			s.orphans = append(s.orphans, c)
		}
	}
	s.view = &shardView{
		epoch:  t.Epoch,
		addrs:  append([]string(nil), t.Addrs...),
		shards: shards,
		place:  dht.NewPlacement(len(t.Addrs)),
	}
	s.cache.setEpoch(t.Epoch)
	return true
}

func sameAddrs(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// retryElastic runs attempt and, while an elastic plane refuses it as
// not-owner — a reshape moved its keys mid-call — reruns it under a
// refreshed membership view, elasticRetryPasses attempts in all. It is the
// client's one retry loop for membership changes: single-datum calls come
// through homeCall, fan-outs re-partition inside attempt, so a batch caught
// mid-reshape converges on the committed placement. attempt must be safe
// to repeat wholesale (a not-owner refusal precedes execution, and all
// batch writes on this plane are put-overwrite idempotent). All other
// errors — including deadlines, which may have executed — return unretried.
func (s *ShardSet) retryElastic(attempt func() error) error {
	var err error
	for pass := 0; pass < elasticRetryPasses; pass++ {
		if pass > 0 && !s.Refresh() {
			// The new membership has not committed yet (cutover-to-commit
			// window); give it a beat and look again.
			time.Sleep(elasticRetryBackoff)
			s.Refresh()
		}
		err = attempt()
		if err == nil || !s.elastic() || !repl.IsNotOwner(err) {
			return err
		}
	}
	return err
}

// homeCall runs fn against uid's home shard, re-resolved on every
// retryElastic pass.
func (s *ShardSet) homeCall(uid data.UID, fn func(c *Comms) error) error {
	return s.retryElastic(func() error { return fn(s.For(uid)) })
}

// partition groups the indexes 0..n-1 by the home shard of uidAt(i) under
// this view, preserving order inside each group. Only shards that receive
// at least one index appear in the map.
func (v *shardView) partition(n int, uidAt func(int) data.UID) map[int][]int {
	groups := make(map[int][]int)
	for i := 0; i < n; i++ {
		shard := v.place.ShardOf(string(uidAt(i)))
		groups[shard] = append(groups[shard], i)
	}
	return groups
}

// eachShard runs fn once per shard group, concurrently when more than one
// shard is involved, and joins the per-shard errors. fn receives the shard's
// connection and the (ordered) indexes homed on it. Groups must come from
// the same view's partition, so indexes and connections agree.
func (v *shardView) eachShard(groups map[int][]int, fn func(shard int, c *Comms, idx []int) error) error {
	if len(groups) == 0 {
		return nil
	}
	if len(groups) == 1 {
		for shard, idx := range groups {
			return fn(shard, v.shards[shard], idx)
		}
	}
	errs := make([]error, 0, len(groups))
	ch := make(chan error, len(groups))
	for shard, idx := range groups {
		go func(shard int, idx []int) {
			ch <- fn(shard, v.shards[shard], idx)
		}(shard, idx)
	}
	for range groups {
		if err := <-ch; err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
