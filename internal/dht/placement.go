package dht

import (
	"fmt"
	"sort"
)

// placementVnodes is the number of virtual points each shard contributes to
// the identifier circle. More points smooth the per-shard key share (the
// classical consistent-hashing trade-off); 32 keeps the worst shard within a
// few percent of fair for the shard counts BitDew deploys (2–64).
const placementVnodes = 32

// Placement maps keys onto one of n shards by consistent hashing on the same
// 64-bit identifier circle the DHT routes on (HashID). It is the static
// little sibling of the full Chord Ring: where the Ring places *entries* on
// *nodes* that join and leave, Placement places *data UIDs* on *service
// shards* whose membership is fixed by configuration — the sharded D*
// service plane. Every client and every shard derive the identical mapping
// from nothing but the shard count, so no placement state is exchanged.
//
// Each shard i contributes placementVnodes points hashed from the stable
// label "shard-i#v". Labels (not addresses) anchor the circle, so a shard
// restarting on a new port keeps its key range, and growing the plane from n
// to n+1 shards only moves the keys claimed by the new shard's points —
// every key either keeps its shard or moves to shard n (the consistent-hash
// property TestPlacementMonotone pins).
type Placement struct {
	n      int
	points []placePoint // sorted by id, ties broken by shard
	// succ[s] is shard s's full successor walk (s first, then every other
	// shard in clockwise first-occurrence order), precomputed once so the
	// failover/reroute hot path never re-scans the n×vnodes point list.
	succ [][]int
}

type placePoint struct {
	id    ID
	shard int
}

// NewPlacement builds the canonical placement over n shards (n >= 1).
func NewPlacement(n int) *Placement {
	if n < 1 {
		panic(fmt.Sprintf("dht: placement over %d shards", n))
	}
	p := &Placement{n: n, points: make([]placePoint, 0, n*placementVnodes)}
	for shard := 0; shard < n; shard++ {
		for v := 0; v < placementVnodes; v++ {
			p.points = append(p.points, placePoint{
				id:    HashID(fmt.Sprintf("shard-%d#%d", shard, v)),
				shard: shard,
			})
		}
	}
	sort.Slice(p.points, func(i, j int) bool {
		if p.points[i].id != p.points[j].id {
			return p.points[i].id < p.points[j].id
		}
		return p.points[i].shard < p.points[j].shard
	})
	p.succ = make([][]int, n)
	for shard := 0; shard < n; shard++ {
		p.succ[shard] = p.successorsWalk(shard, n)
	}
	return p
}

// Shards returns the shard count the placement was built over.
func (p *Placement) Shards() int { return p.n }

// Successors returns the replica set of shard's key range: shard itself
// followed by up to r-1 distinct successor shards, walking the identifier
// circle clockwise from shard's lowest placement point. The walk is a
// deterministic function of (n, shard, r) alone — every client and every
// shard derive the identical replica set from the shard count, exactly like
// ShardOf derives the home shard — so no replica-placement state is ever
// exchanged. Ranges replicate wholesale (a shard's WAL is one ordered
// mutation stream, shipped as a unit), which is why the successor list is
// per SHARD rather than per key: the circle anchors the walk, the range
// rides it whole.
func (p *Placement) Successors(shard, r int) []int {
	if shard < 0 || shard >= p.n {
		panic(fmt.Sprintf("dht: successors of shard %d on a %d-shard placement", shard, p.n))
	}
	if r < 1 {
		r = 1
	}
	if r > p.n {
		r = p.n
	}
	out := make([]int, r)
	copy(out, p.succ[shard][:r])
	return out
}

// successorsWalk is the original O(n·vnodes) circle walk, kept as the
// ground truth NewPlacement precomputes from (and the cross-check test
// pins Successors against).
func (p *Placement) successorsWalk(shard, r int) []int {
	out := []int{shard}
	if r == 1 {
		return out
	}
	// Find shard's lowest point, then walk clockwise collecting the first
	// occurrence of each other shard.
	start := -1
	for i, pt := range p.points {
		if pt.shard == shard {
			start = i
			break
		}
	}
	seen := map[int]bool{shard: true}
	for off := 1; off <= len(p.points) && len(out) < r; off++ {
		pt := p.points[(start+off)%len(p.points)]
		if !seen[pt.shard] {
			seen[pt.shard] = true
			out = append(out, pt.shard)
		}
	}
	return out
}

// ShardOf returns the home shard of key: the shard owning the first
// placement point at or after HashID(key) on the circle (wrapping).
func (p *Placement) ShardOf(key string) int {
	if p.n == 1 {
		return 0
	}
	id := HashID(key)
	i := sort.Search(len(p.points), func(i int) bool { return p.points[i].id >= id })
	if i == len(p.points) {
		i = 0 // wrapped past the highest point
	}
	return p.points[i].shard
}

// Membership is the shared membership table of a sharded service plane:
// the ordered list of shard rpc addresses (the order IS the placement
// contract — clients hash data UIDs onto this list with dht.NewPlacement)
// plus the answering shard's own index. Every shard serves the same table
// under the "ring" service, so any one shard bootstraps a client's view of
// the whole plane.
type Membership struct {
	// Self is the index of the shard answering the query.
	Self int
	// Addrs lists every shard's rpc address, in placement order.
	Addrs []string
	// Replicas is the plane's replication factor R (0 or 1 when the plane
	// is unreplicated); clients use it to build failover-aware routing.
	Replicas int
	// Epoch numbers the membership: it starts at 1 and every committed
	// AddShard/DrainShard bumps it; clients that see a higher epoch than
	// their view rebuild their shard set around the new Addrs.
	Epoch uint64
}
