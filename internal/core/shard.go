package core

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"time"

	"bitdew/internal/data"
	"bitdew/internal/dht"
	"bitdew/internal/repl"
	"bitdew/internal/rpc"
	"bitdew/internal/transfer"
)

// ShardSet is the client side of a sharded D* service plane: the
// consistent-hash placement (dht.Placement) that assigns every datum a home
// range by its UID, and one Comms per range. All catalog, repository and
// scheduler state of a datum lives with its range, so single-datum calls
// route to one slot and batch calls fan out per slot in parallel. A ShardSet
// over one shard is exactly the pre-sharding client.
//
// "Which host serves this key right now?" has one answer, the current
// shardView, and a key's host changes for exactly two reasons: the plane
// commits a new membership epoch (AddShard/DrainShard), or a range's owner
// dies and a successor is promoted (R > 1). Either way the set swaps in a
// new immutable view, and the swap tells the locator cache what to forget.
// Over TCP every slot is the same small rpc.Client forwarding to the one
// physical connection the set keeps per address; slot.go has it, and the
// retry contract that makes a reshape or a failover invisible to callers.
//
// The set also carries a bounded client-side locator cache shared by the
// node's APIs, so repeat lookups of the same datum skip the wire entirely.
type ShardSet struct {
	mu   sync.Mutex
	view *shardView

	cache *locatorCache

	// conns holds the one physical connection per shard address, built on
	// first use by dial and kept for the life of the set: a shard that left
	// the membership keeps its connection (in-flight calls, stale-locator
	// reads against a drained shard) until Close. Both stay nil on a set
	// assembled over ready-made Comms (NewShardSet), which has no plane to
	// follow and no address to fail over to.
	conns map[string]rpc.Client
	dial  func(addr string) rpc.Client
	// inflight is the one resolution (membership read or owner search)
	// running on this set; concurrent callers wait for it (resolve).
	inflight *resolution
	closed   bool
	lastPoll time.Time
	pollIdx  int
}

// shardView is one immutable answer to "who serves what": every call path
// captures a view once and works against it, so a concurrent swap can never
// tear a fan-out between two placements.
type shardView struct {
	epoch    uint64   // membership epoch (0 until learned, and always on static sets)
	addrs    []string // shard rpc addresses in placement order; empty on static sets
	replicas int      // the plane's replication factor R
	place    *dht.Placement
	owner    []int    // owner[r] = shard currently serving range r
	slots    []*Comms // slots[r] = the service connection of range r
}

// home returns the slot of uid's home range under this view.
func (v *shardView) home(uid data.UID) *Comms {
	return v.slots[v.place.ShardOf(string(uid))]
}

// hosts returns one range per physical shard that owns any. After a failover
// one shard serves several ranges, and a per-shard fan-out (catalog search,
// heartbeat) must visit it once — through the slot of any of its ranges.
func (v *shardView) hosts() []int {
	hosts := make([]int, 0, len(v.owner))
	seen := make(map[int]bool, len(v.owner))
	for r, owner := range v.owner {
		if !seen[owner] {
			seen[owner] = true
			hosts = append(hosts, r)
		}
	}
	return hosts
}

// epochPollPeriod throttles the node heartbeat's membership poll: at most
// one tiny ring/Members frame per period, round-robin across shards.
const epochPollPeriod = 500 * time.Millisecond

// failoverDialAttempts is the reconnect budget of the shared connections when
// ranges have successors: a dead owner must surface as ErrTransport in tens
// of milliseconds so the owner search can take over, not after the
// multi-second budget that suits a plane with nowhere else to go.
const failoverDialAttempts = 2

var errSetClosed = errors.New("core: shard set closed")

// ShardOption configures ConnectSharded: it amends the membership table the
// client assumes when no shard answers the membership read at connect time
// (a plane that does answer overrides it with its own).
type ShardOption func(assumed *dht.Membership)

// WithReplicas tells the client the plane's replication factor R.
func WithReplicas(r int) ShardOption {
	return func(assumed *dht.Membership) { assumed.Replicas = r }
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

// ConnectSharded attaches to a service plane over TCP given (some of) its
// shard addresses. First contact is one read of the plane's membership table
// (ring/Members) from the first shard that answers: it proves the plane
// reachable, and yields the membership epoch, the committed address list —
// whose order is the placement contract, so a client handed yesterday's list
// converges right here — and the replication factor R. A shard that is down
// at connect time does not abort the join: connections are built lazily and
// heal when the shard restarts, so a new client can attach to a degraded
// plane exactly as an old client rides through the degradation. Only a plane
// with EVERY shard unreachable refuses the connect.
//
// R also decides the reconnect budget of the connections: short when a
// range has a successor to fail over to, rpc's default when it has not.
func ConnectSharded(addrs []string, opts ...ShardOption) (*ShardSet, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("core: connect sharded: empty membership")
	}
	t := dht.Membership{Addrs: addrs}
	for _, opt := range opts {
		opt(&t)
	}
	var dialErrs []error
	for i, addr := range addrs {
		c, err := rpc.Dial(addr, rpc.WithCallTimeout(repl.DefaultProbeTimeout))
		if err != nil {
			dialErrs = append(dialErrs, fmt.Errorf("core: connect shard %d of %d: %w", i, len(addrs), err))
			continue
		}
		answer, err := repl.Members(c)
		c.Close()
		if err == nil && len(answer.Addrs) > 0 {
			t = answer
			break
		}
	}
	if len(dialErrs) == len(addrs) {
		return nil, errors.Join(dialErrs...)
	}
	set := &ShardSet{
		cache: newLocatorCache(defaultLocatorCacheSize),
		conns: make(map[string]rpc.Client),
	}
	if t.Replicas > 1 {
		set.dial = func(addr string) rpc.Client {
			return rpc.DialAutoLazyN(addr, failoverDialAttempts, rpc.WithCallTimeout(DefaultCallTimeout))
		}
	} else {
		set.dial = func(addr string) rpc.Client {
			return rpc.DialAutoLazy(addr, rpc.WithCallTimeout(DefaultCallTimeout))
		}
	}
	set.view = set.newView(t)
	set.cache.setEpoch(t.Epoch)
	return set, nil
}

// NewShardSet assembles a static set over already-connected Comms (local,
// TCP, or mixed), in membership order: slot i IS shard i, for good.
func NewShardSet(shards ...*Comms) *ShardSet {
	if len(shards) == 0 {
		panic("core: shard set over zero shards")
	}
	return &ShardSet{
		view: &shardView{
			place: dht.NewPlacement(len(shards)),
			owner: identity(len(shards)),
			slots: shards,
		},
		cache: newLocatorCache(defaultLocatorCacheSize),
	}
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// newView builds the view of a membership table: every range owned by its
// home shard, one fresh slot per range.
func (s *ShardSet) newView(t dht.Membership) *shardView {
	n := len(t.Addrs)
	v := &shardView{
		epoch:    t.Epoch,
		addrs:    append([]string(nil), t.Addrs...),
		replicas: min(t.Replicas, n),
		place:    dht.NewPlacement(n),
		owner:    identity(n),
		slots:    make([]*Comms, n),
	}
	for r, addr := range v.addrs {
		v.slots[r] = commsFrom(&slot{set: s, rangeID: r, epoch: v.epoch, home: addr})
	}
	return v
}

// install makes next the current view and tells the locator cache what the
// move invalidated: everything when the membership epoch changed (key ranges
// moved), the ranges whose owner moved otherwise — their cached endpoints may
// belong to the dead shard, and the promoted owner must be re-consulted. It
// is the one place a view is swapped; the caller holds s.mu.
func (s *ShardSet) install(next *shardView) {
	prev := s.view
	s.view = next
	if next.epoch != prev.epoch {
		s.cache.setEpoch(next.epoch)
		return
	}
	for r, owner := range next.owner {
		if owner != prev.owner[r] {
			s.cache.invalidateRange(next.place, r)
		}
	}
}

// currentView returns the view to run one operation against.
func (s *ShardSet) currentView() *shardView {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.view
}

// conn returns (building lazily) the set's one connection to addr. A closed
// set builds none: a call racing Close must not leave a connection behind
// that nobody will close. The caller holds s.mu.
func (s *ShardSet) conn(addr string) (rpc.Client, error) {
	if s.closed {
		return nil, errSetClosed
	}
	c, ok := s.conns[addr]
	if !ok {
		c = s.dial(addr) // lazy: touches no network
		s.conns[addr] = c
	}
	return c, nil
}

// Epoch returns the membership epoch of the current view (0 until the
// plane's epoch has been learned, and always on static sets).
func (s *ShardSet) Epoch() uint64 { return s.currentView().epoch }

// N returns the number of shards.
func (s *ShardSet) N() int { return len(s.currentView().slots) }

// ShardOf returns the index of uid's home shard.
func (s *ShardSet) ShardOf(uid data.UID) int {
	return s.currentView().place.ShardOf(string(uid))
}

// For returns the service connection of uid's home shard.
func (s *ShardSet) For(uid data.UID) *Comms { return s.currentView().home(uid) }

// Shard returns the i-th shard's connection.
func (s *ShardSet) Shard(i int) *Comms { return s.currentView().slots[i] }

// OwnerOf returns the physical shard currently serving range i: i itself
// until a failover promotes a successor.
func (s *ShardSet) OwnerOf(i int) int { return s.currentView().owner[i] }

// RoundTrips sums the request frames sent to every shard: over the Comms a
// static set was given, and over the physical connections TCP slots share
// (such slots count none themselves). Benchmarks read it around every
// operation, so it allocates nothing.
func (s *ShardSet) RoundTrips() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total uint64
	for _, c := range s.view.slots {
		total += c.RoundTrips()
	}
	for _, c := range s.conns {
		if n, ok := rpc.RoundTrips(c); ok {
			total += n
		}
	}
	return total
}

// LocatorCacheStats reports the client-side locator cache's hits and misses
// since connect; benchmarks and tests use it to show repeat lookups skip
// the wire.
func (s *ShardSet) LocatorCacheStats() (hits, misses uint64) {
	return s.cache.stats()
}

// Close releases every connection the set holds (including those of shards
// that left the membership), returning the first error.
func (s *ShardSet) Close() error {
	s.mu.Lock()
	s.closed = true
	closing := make([]io.Closer, 0, len(s.view.slots)+len(s.conns))
	for _, c := range s.view.slots {
		closing = append(closing, c)
	}
	for _, c := range s.conns {
		closing = append(closing, c)
	}
	s.mu.Unlock()
	var first error
	for _, c := range closing {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// readMembership asks addrs, in order, for the plane's membership table and
// adopts the first answer when it carries a newer epoch than the current
// view: a view is built around the new address list and the locator cache is
// flushed. Returns true when the view changed.
func (s *ShardSet) readMembership(addrs []string) bool {
	for _, addr := range addrs {
		s.mu.Lock()
		c, err := s.conn(addr)
		s.mu.Unlock()
		if err != nil {
			return false
		}
		t, err := repl.Members(c)
		if err != nil || len(t.Addrs) == 0 {
			continue
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.closed || t.Epoch <= s.view.epoch {
			return false
		}
		s.install(s.newView(t))
		return true
	}
	return false
}

// Refresh re-reads the membership table from the plane and adopts it when it
// carries a newer epoch. Returns true when the view changed — also when a
// concurrent caller's read changed it. No-op (false) on static sets.
func (s *ShardSet) Refresh() bool {
	return s.refresh(s.currentView())
}

// PollEpoch is the heartbeat-path membership probe: at most once per
// epochPollPeriod it asks one shard (round-robin) for the ring table and
// adopts any newer epoch.
func (s *ShardSet) PollEpoch() {
	s.mu.Lock()
	addrs := s.view.addrs
	if len(addrs) == 0 || s.closed || time.Since(s.lastPoll) < epochPollPeriod {
		s.mu.Unlock()
		return
	}
	s.lastPoll = time.Now()
	idx := s.pollIdx % len(addrs)
	s.pollIdx++
	s.mu.Unlock()
	s.readMembership(addrs[idx : idx+1])
}

// partition groups the indexes 0..n-1 by the home range of uidAt(i) under
// this view, preserving order inside each group. Only ranges that receive
// at least one index appear in the map.
func (v *shardView) partition(n int, uidAt func(int) data.UID) map[int][]int {
	groups := make(map[int][]int)
	for i := 0; i < n; i++ {
		shard := v.place.ShardOf(string(uidAt(i)))
		groups[shard] = append(groups[shard], i)
	}
	return groups
}

// homeFrames runs frame once per home range of the data pending indexes
// (uid names each one's datum), the frames in parallel, handing each its
// range's slot and its data; a frame leaves each datum's verdict in errs.
// Data whose frame never ran for them (a retryable verdict) go again under a
// newer view while retryElastic allows. It returns the slots' DT services.
func (s *ShardSet) homeFrames(pending []int, uid func(int) data.UID, errs []error, frame func(shard int, c *Comms, idx []int)) (reached []*transfer.Client) {
	_ = s.retryElastic(func(v *shardView) error {
		groups := v.partition(len(pending), func(j int) data.UID { return uid(pending[j]) })
		v.eachShard(groups, func(shard int, c *Comms, idx []int) error {
			for k, j := range idx {
				idx[k] = pending[j]
			}
			frame(shard, c, idx)
			return nil
		})
		for shard := range groups {
			reached = append(reached, v.slots[shard].DT)
		}
		var again []error
		pending = slices.DeleteFunc(slices.Clone(pending), func(i int) bool { return !retryable(errs[i]) })
		for _, i := range pending {
			again = append(again, errs[i])
		}
		return errors.Join(again...)
	})
	return reached
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
			return fn(shard, v.slots[shard], idx)
		}
	}
	errs := make([]error, 0, len(groups))
	ch := make(chan error, len(groups))
	for shard, idx := range groups {
		go func(shard int, idx []int) {
			ch <- fn(shard, v.slots[shard], idx)
		}(shard, idx)
	}
	for range groups {
		if err := <-ch; err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
