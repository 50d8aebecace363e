// Package dht implements a Chord-style distributed hash table standing in
// for the DKS DHT used by BitDew's Distributed Data Catalog (paper §3.4.1,
// Table 3). The DDC stores, for each datum held by volatile reservoir
// nodes, the set of (dataID, hostID) pairs; the DHT gives that catalog the
// two properties the paper's design rationale demands: inherent fault
// tolerance (replicated entries survive node failures without the central
// Data Catalog implementing failure detection) and even load balancing of
// search requests.
//
// Nodes live in one process and communicate by direct calls routed through
// the Ring, which counts hops and can inject a per-hop latency so that
// benchmarks reproduce wide-area routing costs. Routing is the standard
// Chord protocol: consistent hashing on a 64-bit identifier circle, finger
// tables for O(log n) lookups, successor lists for resilience, and periodic
// stabilization to repair the ring after joins and failures.
package dht

import (
	"crypto/md5"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// ID is a position on the 64-bit identifier circle.
type ID uint64

// HashID maps a string key or node name onto the identifier circle.
func HashID(s string) ID {
	// On the stack: []byte(s) of a 35-byte UID allocates on every placement.
	var buf [64]byte
	sum := md5.Sum(append(buf[:0], s...))
	return ID(binary.BigEndian.Uint64(sum[:8]))
}

// between reports whether x lies in the circular interval (a, b].
func between(x, a, b ID) bool {
	if a < b {
		return x > a && x <= b
	}
	if a > b {
		return x > a || x <= b
	}
	return true // a == b: full circle
}

// betweenOpen reports whether x lies in the circular interval (a, b).
func betweenOpen(x, a, b ID) bool {
	if a < b {
		return x > a && x < b
	}
	if a > b {
		return x > a || x < b
	}
	return x != a
}

const (
	fingerBits    = 64
	successorFan  = 4 // successor-list length
	defaultRepFac = 3 // entry replication factor
)

// ErrNodeDown is returned when routing reaches a failed node.
var ErrNodeDown = errors.New("dht: node down")

// ErrEmptyRing is returned by operations on a ring with no live node.
var ErrEmptyRing = errors.New("dht: empty ring")

// nodeRef is a lightweight pointer to a node (its identity only); the Ring
// resolves refs to live nodes at call time, so a ref to a crashed node
// surfaces ErrNodeDown exactly like a timed-out RPC would.
type nodeRef struct {
	id   ID
	name string
}

// Node is one DHT participant.
type Node struct {
	ring *Ring
	id   ID
	name string

	mu          sync.RWMutex
	predecessor *nodeRef
	successors  []nodeRef // at least 1, up to successorFan
	fingers     [fingerBits]*nodeRef
	store       map[string]map[string]struct{} // key -> value set
	alive       bool
	nextFinger  int
}

// ID returns the node's position on the circle.
func (n *Node) ID() ID { return n.id }

// Name returns the node's name.
func (n *Node) Name() string { return n.name }

// Ring is the collection of nodes plus the in-process "network" connecting
// them. All exported methods are safe for concurrent use.
type Ring struct {
	mu       sync.RWMutex
	nodes    map[string]*Node
	repFac   int
	hopDelay time.Duration

	statMu sync.Mutex
	hops   uint64
	calls  uint64

	rng   *rand.Rand
	rngMu sync.Mutex
}

// Option configures a Ring.
type Option func(*Ring)

// WithHopDelay sleeps d on every inter-node hop, modelling network latency
// so that measurements over the in-process ring keep wide-area shape.
func WithHopDelay(d time.Duration) Option {
	return func(r *Ring) { r.hopDelay = d }
}

// WithReplication sets the entry replication factor (default 3).
func WithReplication(k int) Option {
	return func(r *Ring) {
		if k >= 1 {
			r.repFac = k
		}
	}
}

// WithSeed fixes the random source used to pick entry nodes, making test
// runs reproducible.
func WithSeed(seed int64) Option {
	return func(r *Ring) { r.rng = rand.New(rand.NewSource(seed)) }
}

// NewRing returns an empty ring.
func NewRing(opts ...Option) *Ring {
	r := &Ring{
		nodes:  make(map[string]*Node),
		repFac: defaultRepFac,
		rng:    rand.New(rand.NewSource(1)),
	}
	for _, o := range opts {
		o(r)
	}
	return r
}

// resolve returns the live node behind ref, charging one hop.
func (r *Ring) resolve(ref nodeRef) (*Node, error) {
	if r.hopDelay > 0 {
		time.Sleep(r.hopDelay)
	}
	r.statMu.Lock()
	r.hops++
	r.calls++
	r.statMu.Unlock()
	r.mu.RLock()
	n := r.nodes[ref.name]
	r.mu.RUnlock()
	if n == nil {
		return nil, fmt.Errorf("%w: %s", ErrNodeDown, ref.name)
	}
	n.mu.RLock()
	alive := n.alive
	n.mu.RUnlock()
	if !alive {
		return nil, fmt.Errorf("%w: %s", ErrNodeDown, ref.name)
	}
	return n, nil
}

// Stats returns the cumulative number of inter-node hops and calls.
func (r *Ring) Stats() (hops, calls uint64) {
	r.statMu.Lock()
	defer r.statMu.Unlock()
	return r.hops, r.calls
}

// ResetStats zeroes the hop counters.
func (r *Ring) ResetStats() {
	r.statMu.Lock()
	r.hops, r.calls = 0, 0
	r.statMu.Unlock()
}

// Size returns the number of live nodes.
func (r *Ring) Size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	live := 0
	for _, n := range r.nodes {
		n.mu.RLock()
		if n.alive {
			live++
		}
		n.mu.RUnlock()
	}
	return live
}

// Nodes returns the names of live nodes in sorted order.
func (r *Ring) Nodes() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var names []string
	for _, n := range r.nodes {
		n.mu.RLock()
		if n.alive {
			names = append(names, n.name)
		}
		n.mu.RUnlock()
	}
	sort.Strings(names)
	return names
}

// anyNode picks a random live node as the entry point of a routed operation.
func (r *Ring) anyNode() (*Node, error) {
	r.mu.RLock()
	live := make([]*Node, 0, len(r.nodes))
	for _, n := range r.nodes {
		n.mu.RLock()
		if n.alive {
			live = append(live, n)
		}
		n.mu.RUnlock()
	}
	r.mu.RUnlock()
	if len(live) == 0 {
		return nil, ErrEmptyRing
	}
	r.rngMu.Lock()
	n := live[r.rng.Intn(len(live))]
	r.rngMu.Unlock()
	return n, nil
}

// AddNode creates a node named name and joins it to the ring, transferring
// any keys that now fall under its responsibility.
func (r *Ring) AddNode(name string) (*Node, error) {
	r.mu.Lock()
	if existing, dup := r.nodes[name]; dup {
		existing.mu.RLock()
		alive := existing.alive
		existing.mu.RUnlock()
		if alive {
			r.mu.Unlock()
			return nil, fmt.Errorf("dht: node %s already in ring", name)
		}
	}
	n := &Node{
		ring:  r,
		id:    HashID(name),
		name:  name,
		store: make(map[string]map[string]struct{}),
		alive: true,
	}
	var bootstrap *Node
	for _, other := range r.nodes {
		other.mu.RLock()
		alive := other.alive
		other.mu.RUnlock()
		if alive && other.name != name {
			bootstrap = other
			break
		}
	}
	r.nodes[name] = n
	r.mu.Unlock()

	if bootstrap == nil {
		// First node: a ring of one, its own successor.
		n.mu.Lock()
		n.successors = []nodeRef{n.ref()}
		n.predecessor = nil
		n.mu.Unlock()
		return n, nil
	}
	succ, err := bootstrap.findSuccessor(n.id)
	if err != nil {
		return nil, fmt.Errorf("dht: join %s: %w", name, err)
	}
	n.mu.Lock()
	n.successors = []nodeRef{succ}
	n.mu.Unlock()
	// Take over keys in (predecessor(succ), n].
	if sn, err := r.resolve(succ); err == nil {
		moved := sn.handOff(n.id)
		n.mu.Lock()
		for k, vals := range moved {
			set := n.store[k]
			if set == nil {
				set = make(map[string]struct{})
				n.store[k] = set
			}
			for v := range vals {
				set[v] = struct{}{}
			}
		}
		n.mu.Unlock()
	}
	n.stabilize()
	return n, nil
}

// ref returns the node's own reference.
func (n *Node) ref() nodeRef { return nodeRef{id: n.id, name: n.name} }

// Fail marks a node crashed: it stops answering, and its stored entries are
// lost, exactly like a volatile reservoir host disappearing.
func (r *Ring) Fail(name string) error {
	r.mu.RLock()
	n := r.nodes[name]
	r.mu.RUnlock()
	if n == nil {
		return fmt.Errorf("dht: unknown node %s", name)
	}
	n.mu.Lock()
	n.alive = false
	n.store = make(map[string]map[string]struct{})
	n.mu.Unlock()
	return nil
}

// Stabilize runs one stabilization round (stabilize + fix one finger) on
// every live node; tests and simulations call it repeatedly instead of
// running background tickers, keeping runs deterministic.
func (r *Ring) Stabilize() {
	r.mu.RLock()
	nodes := make([]*Node, 0, len(r.nodes))
	for _, n := range r.nodes {
		nodes = append(nodes, n)
	}
	r.mu.RUnlock()
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].id < nodes[j].id })
	for _, n := range nodes {
		n.mu.RLock()
		alive := n.alive
		n.mu.RUnlock()
		if alive {
			n.stabilize()
			n.fixFingers()
		}
	}
}

// StabilizeFully runs stabilization rounds until the ring reaches a fixed
// point (or the round budget is exhausted), then rebuilds finger tables.
func (r *Ring) StabilizeFully() {
	rounds := 2*len(r.nodes) + 8
	for i := 0; i < rounds; i++ {
		r.Stabilize()
	}
	r.mu.RLock()
	nodes := make([]*Node, 0, len(r.nodes))
	for _, n := range r.nodes {
		nodes = append(nodes, n)
	}
	r.mu.RUnlock()
	for _, n := range nodes {
		n.mu.RLock()
		alive := n.alive
		n.mu.RUnlock()
		if alive {
			for i := 0; i < fingerBits; i++ {
				n.fixFingers()
			}
		}
	}
}
