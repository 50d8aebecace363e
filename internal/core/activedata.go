package core

import (
	"fmt"
	"sync"

	"bitdew/internal/attr"
	"bitdew/internal/data"
	"bitdew/internal/rpc"
)

// Event is one data life-cycle occurrence delivered to callbacks.
type Event struct {
	Data data.Data
	Attr attr.Attribute
}

// EventHandler receives data life-cycle events. Any field may be nil.
// Handlers run on the node's pull-loop goroutine; they dispatch on the
// attribute name exactly as the paper's Listing 2 handlers do.
type EventHandler struct {
	// OnDataCopy fires when a datum's content has landed in the local
	// cache (after integrity verification).
	OnDataCopy func(Event)
	// OnDataDelete fires when the scheduler obsoletes a cached datum and
	// the local copy is removed.
	OnDataDelete func(Event)
}

// ActiveData is the scheduling-and-events API: it manages data attributes,
// interfaces with the Data Scheduler, and delivers life-cycle callbacks.
// Over a sharded service plane each datum is scheduled on its home shard's
// scheduler; note that affinity and relative-lifetime references resolve
// within one shard, so data linked by them should share a home shard (see
// DESIGN.md, "Sharded service plane").
type ActiveData struct {
	set  *ShardSet
	node *Node // back-reference for cache bookkeeping; nil off-node

	mu       sync.Mutex
	handlers []EventHandler
}

// NewActiveDataSharded builds the API over a service plane. Attach it to a
// Node (via Node.ActiveData) to receive callbacks.
func NewActiveDataSharded(set *ShardSet) *ActiveData {
	return &ActiveData{set: set}
}

// CreateAttribute parses an attribute definition in the paper's language,
// e.g. bitdew.createAttribute("attr update = {replica = -1, oob =
// bittorrent}").
func (a *ActiveData) CreateAttribute(spec string) (attr.Attribute, error) {
	return attr.Parse(spec)
}

// Schedule associates the datum with an attribute and orders its home
// shard's Data Scheduler to place it according to Algorithm 1.
func (a *ActiveData) Schedule(d data.Data, at attr.Attribute) error {
	return a.set.homeCall(d.UID, func(c *Comms) error { return c.DS.Schedule(d, at) })
}

// ScheduleAll schedules many data in one round trip per home shard: the
// Schedule calls are partitioned onto their data's shards and each shard's
// calls travel in a single rpc batch frame, the frames in parallel. as must
// either match ds in length or hold a single attribute applied to every
// datum.
func (a *ActiveData) ScheduleAll(ds []data.Data, as []attr.Attribute) error {
	if len(as) != len(ds) && len(as) != 1 {
		return fmt.Errorf("core: scheduleAll: %d data but %d attributes", len(ds), len(as))
	}
	attrAt := func(i int) attr.Attribute {
		if len(as) == len(ds) {
			return as[i]
		}
		return as[0]
	}
	// Schedule is put-overwrite idempotent, so a wave caught mid-rebalance
	// reruns wholesale against the refreshed placement.
	return a.set.retryElastic(func(v *shardView) error {
		groups := v.partition(len(ds), func(i int) data.UID { return ds[i].UID })
		return v.eachShard(groups, func(shard int, c *Comms, idx []int) error {
			calls := make([]*rpc.Call, len(idx))
			for j, i := range idx {
				calls[j] = c.DS.ScheduleCall(ds[i], attrAt(i))
			}
			if err := c.CallBatch(calls); err != nil {
				return err
			}
			return rpc.FirstError(calls)
		})
	})
}

// Pin schedules the datum and declares it owned by this node: the
// scheduler will never expire that ownership, and affinity references
// resolve to this node. Off-node (no attached Node), host must be set by
// PinAs.
func (a *ActiveData) Pin(d data.Data, at attr.Attribute) error {
	host := ""
	if a.node != nil {
		host = a.node.Host
	}
	return a.PinAs(d, at, host)
}

// PinAs pins the datum for an explicit host identity.
func (a *ActiveData) PinAs(d data.Data, at attr.Attribute, host string) error {
	err := a.set.homeCall(d.UID, func(c *Comms) error { return c.DS.Pin(d, at, host) })
	if err != nil {
		return err
	}
	if a.node != nil && a.node.Host == host {
		a.node.adoptLocal(d, at)
	}
	return nil
}

// Unschedule withdraws the datum from its home shard's scheduler; data
// bound to it by relative lifetime become obsolete.
func (a *ActiveData) Unschedule(d data.Data) error {
	return a.set.homeCall(d.UID, func(c *Comms) error { return c.DS.Unschedule(d.UID) })
}

// AddCallback installs a life-cycle event handler (Listing 1's
// activeData.addCallback(new UpdaterHandler())).
func (a *ActiveData) AddCallback(h EventHandler) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.handlers = append(a.handlers, h)
}

// fireCopy delivers a data-copy event to every handler.
func (a *ActiveData) fireCopy(e Event) {
	a.mu.Lock()
	hs := append([]EventHandler(nil), a.handlers...)
	a.mu.Unlock()
	for _, h := range hs {
		if h.OnDataCopy != nil {
			h.OnDataCopy(e)
		}
	}
}

// fireDelete delivers a data-delete event to every handler.
func (a *ActiveData) fireDelete(e Event) {
	a.mu.Lock()
	hs := append([]EventHandler(nil), a.handlers...)
	a.mu.Unlock()
	for _, h := range hs {
		if h.OnDataDelete != nil {
			h.OnDataDelete(e)
		}
	}
}
