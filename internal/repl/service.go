package repl

import (
	"fmt"
	"time"

	"bitdew/internal/db"
	"bitdew/internal/dht"
	"bitdew/internal/rpc"
)

// Wire types of the replication protocol. All fields are concrete (the
// codec carries no interface); mutation batches ride the same db.Mutation records the feed emits.

// ApplyArgs ships a batch of tail mutations of one source shard's stream:
// the mutations of sequence span (Prev, Last] that belong in the stream —
// all of them in steady state, the moving arcs' only in a reshape, which is
// why the span and not the mutations' own numbers detects gaps. An empty
// Muts slice with Prev == Last is a heartbeat: the reply reports the
// follower's current ack state without changing anything.
type ApplyArgs struct {
	Shard      int    // source shard (whose stream this is)
	Epoch      uint64 // source stream epoch
	Prev, Last uint64
	Muts       []db.Mutation
}

// ApplyReply acks the highest sequence number covered without a gap.
// NeedSync asks the shipper to restart from a snapshot: the follower has
// never synced, saw a different epoch (source rebooted), or detected a gap.
type ApplyReply struct {
	AckSeq         uint64
	NeedSync       bool
	PendingContent int // content pulls not yet completed on this follower
}

// SyncArgs replaces the follower's whole namespace for the source shard
// with a snapshot cut at sequence number Seq. Addr is the source's rpc
// address, where the follower pulls announced content from. A reshape's
// move stream additionally names the Arcs it is filtered to (the follower
// refuses them until its Commit adopts the rows), the source's committed
// membership epoch, and the source's repository Endpoints, which the adopt
// rewrites moved locators away from.
type SyncArgs struct {
	Shard     int
	Epoch     uint64
	Seq       uint64
	Snapshot  []db.Mutation
	Addr      string
	Arcs      []dht.Range
	Member    uint64
	Endpoints map[string]string
}

type SyncReply struct {
	AckSeq         uint64
	PendingContent int
}

// OwnerArgs/OwnerReply answer "who owns this range": Serving means this
// shard does; Promoting means a promotion of that range is in flight here
// (callers must wait for it to resolve rather than assume either outcome).
type OwnerArgs struct{ Range int }
type OwnerReply struct {
	Shard     int
	Serving   bool
	Promoting bool
}

// PromoteArgs asks this shard to take ownership of a range whose earlier
// candidates are dead.
type PromoteArgs struct{ Range int }
type PromoteReply struct{ Promoted bool }

// FetchContentArgs pulls the content bytes of a batch of data. The reply
// answers a PREFIX of UIDs, in order: it is cut (after at least one item)
// once it carries pullBytesMax of content, and the puller asks again for the
// rest. Found=false is a definite "this shard holds no such content"; a
// backend that could not tell fails the call instead.
type FetchContentArgs struct{ UIDs []string }
type FetchContentReply struct{ Items []ContentItem }
type ContentItem struct {
	Found   bool
	Content []byte
}

// StageArgs proposes a membership change: the full new address list in
// placement order. CutoverArgs flips ownership of the staged arcs; AbortArgs
// cancels the staged reshape. Success is the answer to all three.
type StageArgs struct{ NewAddrs []string }
type StageReply struct{}
type CutoverArgs struct{}
type CutoverReply struct{}
type AbortArgs struct{}
type AbortReply struct{}

// CommitArgs adopts a committed membership on any shard.
type CommitArgs struct {
	Epoch uint64
	Addrs []string
}
type CommitReply struct{}

// StatusArgs/StatusReply expose the node's ownership state (CLI `bitdew
// ring` and `bitdew repl`, the coordinator, tests, convergence waits).
type StatusArgs struct{}
type StatusReply struct {
	Self           int
	Epoch          uint64         // committed membership epoch
	Shards         int            // committed placement's shard count
	Staging        bool           // an outbound reshape is staged here
	Stream         uint64         // this boot's stream epoch
	Seq            uint64         // last sequence number fed locally
	Serving        map[int]uint64 // owned ranges -> ownership claim
	Targets        []TargetStatus // steady-state and reshape ship targets
	PendingContent int
}

type TargetStatus struct {
	Addr           string
	Acked          uint64
	Synced         bool
	PendingContent int
}

// Mount registers the ownership protocol on the shard's Mux.
func (n *Node) Mount(m *rpc.Mux) {
	rpc.Register(m, ServiceName, "Apply", n.handleApply)
	rpc.Register(m, ServiceName, "Sync", n.handleSync)
	rpc.Register(m, ServiceName, "Owner", n.handleOwner)
	rpc.Register(m, ServiceName, "Promote", n.handlePromote)
	rpc.Register(m, ServiceName, "FetchContent", n.handleFetchContent)
	rpc.Register(m, ServiceName, "Status", n.handleStatus)
	rpc.Register(m, ServiceName, "Stage", func(a StageArgs) (StageReply, error) {
		return StageReply{}, n.Stage(a.NewAddrs)
	})
	rpc.Register(m, ServiceName, "Cutover", func(CutoverArgs) (CutoverReply, error) {
		return CutoverReply{}, n.Cutover()
	})
	rpc.Register(m, ServiceName, "Abort", func(AbortArgs) (AbortReply, error) {
		n.Abort()
		return AbortReply{}, nil
	})
	rpc.Register(m, ServiceName, "Commit", func(a CommitArgs) (CommitReply, error) {
		return CommitReply{}, n.Commit(a.Epoch, a.Addrs)
	})
}

// handleApply applies a tail batch to the source's namespace. Duplicates
// (Seq <= last covered) are dropped — re-sending a possibly-delivered batch
// after an ambiguous failure is safe by design, which is why the shipper
// may retry Apply even after rpc.ErrDeadline. A batch that starts past the
// last covered sequence number means mutations were lost between shipper
// and follower; the follower refuses it and asks for a snapshot instead of
// applying out of order.
func (n *Node) handleApply(a ApplyArgs) (ApplyReply, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := n.replicas[a.Shard]
	if st == nil || !st.synced || st.epoch != a.Epoch || a.Prev > st.last {
		var ack uint64
		if st != nil {
			ack = st.last
		}
		return ApplyReply{AckSeq: ack, NeedSync: true, PendingContent: n.pull.pending()}, nil
	}
	for _, m := range a.Muts {
		if m.Seq <= st.last {
			continue // duplicate delivery
		}
		if err := n.applyOneLocked(a.Shard, st, m); err != nil {
			return ApplyReply{AckSeq: st.last}, err
		}
		st.last = m.Seq
	}
	if a.Last > st.last {
		st.last = a.Last
	}
	return ApplyReply{AckSeq: st.last, PendingContent: n.pull.pending()}, nil
}

// applyOneLocked writes one mutation into the source's namespace; a locator
// row schedules a pull of the content it announces, its deletion cancels
// one still queued.
func (n *Node) applyOneLocked(src int, st *replicaState, m db.Mutation) error {
	tbl := nsTable(src, m.Table)
	st.tables[m.Table] = true
	switch m.Op {
	case 'P':
		if err := n.rstore.Put(tbl, m.Key, m.Value); err != nil {
			return fmt.Errorf("repl: apply: %w", err)
		}
		if m.Table == n.cfg.ContentTable {
			n.pull.enqueue(m.Key, st.addr)
		}
	case 'D':
		if err := n.rstore.Delete(tbl, m.Key); err != nil {
			return fmt.Errorf("repl: apply: %w", err)
		}
		if m.Table == n.cfg.ContentTable {
			n.pull.cancel(m.Key)
		}
	default:
		return fmt.Errorf("repl: apply: unknown op %q", m.Op)
	}
	return nil
}

// clearNamespaceLocked deletes every row stream src shipped here.
func (n *Node) clearNamespaceLocked(src int, st *replicaState) error {
	for tbl := range st.tables {
		keys, err := n.rstore.Keys(nsTable(src, tbl))
		if err != nil {
			return err
		}
		for _, k := range keys {
			if err := n.rstore.Delete(nsTable(src, tbl), k); err != nil {
				return err
			}
		}
	}
	st.tables = make(map[string]bool)
	return nil
}

// handleSync replaces the source's namespace wholesale with the snapshot. A
// move stream's arcs join the gate here and leave it at Commit.
func (n *Node) handleSync(a SyncArgs) (SyncReply, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if a.Arcs != nil && a.Member < n.epoch {
		return SyncReply{}, fmt.Errorf("repl: shard %d committed membership epoch %d; shard %d stages from epoch %d",
			n.cfg.Shard, n.epoch, a.Shard, a.Member)
	}
	if old := n.replicas[a.Shard]; old != nil {
		if err := n.clearNamespaceLocked(a.Shard, old); err != nil {
			return SyncReply{}, fmt.Errorf("repl: sync: %w", err)
		}
	}
	st := &replicaState{epoch: a.Epoch, last: a.Seq, synced: true, tables: make(map[string]bool),
		addr: a.Addr, arcs: a.Arcs, endpoints: a.Endpoints}
	n.replicas[a.Shard] = st
	n.inbound = nil
	for _, r := range n.replicas {
		n.inbound = append(n.inbound, r.arcs...)
	}
	for _, m := range a.Snapshot {
		if err := n.applyOneLocked(a.Shard, st, m); err != nil {
			st.synced = false
			return SyncReply{}, err
		}
	}
	n.logf("repl: shard %d synced stream of shard %d at epoch %d seq %d (%d rows)",
		n.cfg.Shard, a.Shard, a.Epoch, a.Seq, len(a.Snapshot))
	return SyncReply{AckSeq: st.last, PendingContent: n.pull.pending()}, nil
}

func (n *Node) handleOwner(a OwnerArgs) (OwnerReply, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, serving := n.serving[a.Range]
	return OwnerReply{Shard: n.cfg.Shard, Serving: serving, Promoting: n.promoting[a.Range]}, nil
}

func (n *Node) handlePromote(a PromoteArgs) (PromoteReply, error) {
	err := n.Promote(a.Range)
	return PromoteReply{Promoted: err == nil}, err
}

func (n *Node) handleFetchContent(a FetchContentArgs) (FetchContentReply, error) {
	if n.cfg.GetContent == nil {
		return FetchContentReply{Items: make([]ContentItem, len(a.UIDs))}, nil
	}
	var rep FetchContentReply
	size := 0
	for _, uid := range a.UIDs {
		content, found, err := n.cfg.GetContent(uid)
		if err != nil {
			// Not "absent": the puller must retry, not drop the pull for good.
			return FetchContentReply{}, fmt.Errorf("repl: shard %d reading content %s: %w", n.cfg.Shard, uid, err)
		}
		rep.Items = append(rep.Items, ContentItem{Found: found, Content: content})
		if size += len(content); size >= pullBytesMax {
			break
		}
	}
	return rep, nil
}

func (n *Node) handleStatus(StatusArgs) (StatusReply, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	rep := StatusReply{
		Self:           n.cfg.Shard,
		Epoch:          n.epoch,
		Shards:         n.place.Shards(),
		Staging:        n.staged != nil,
		Seq:            n.cfg.Feed.Seq(),
		Serving:        make(map[int]uint64, len(n.serving)),
		PendingContent: n.pull.pending(),
	}
	for r, e := range n.serving {
		rep.Serving[r] = e
	}
	target := func(s *shipper) {
		acked, synced, pending, _ := s.state()
		rep.Targets = append(rep.Targets, TargetStatus{Addr: s.target, Acked: acked, Synced: synced, PendingContent: pending})
		if pending > 0 {
			signal(s.poke) // an idle shipper's report goes stale: refresh it for the next reader
		}
	}
	for _, s := range n.shippers {
		target(s)
	}
	if n.staged != nil {
		for _, s := range n.staged.shippers {
			target(s)
		}
	}
	return rep, nil
}

// ask makes one call on a fresh connection bounded by timeout.
func (n *Node) ask(addr string, timeout time.Duration, method string, args, reply any) error {
	c, err := rpc.Dial(addr, n.dialOpts(addr, timeout)...)
	if err != nil {
		return err
	}
	defer c.Close()
	return c.Call(ServiceName, method, args, reply)
}

// probeOwner asks the shard at addr who owns rangeID. Any error means
// "treat as dead for this pass".
func (n *Node) probeOwner(addr string, rangeID int) (OwnerReply, error) {
	var rep OwnerReply
	err := n.ask(addr, n.cfg.ProbeTimeout, "Owner", OwnerArgs{Range: rangeID}, &rep)
	return rep, err
}

// Client drives a shard's reshape verbs (the coordinator's view of a shard:
// in-process for ShardedContainer, over TCP for `bitdew ring add/drain`).
type Client struct {
	c rpc.Client
}

// NewClient wraps an rpc connection to a shard.
func NewClient(c rpc.Client) *Client { return &Client{c: c} }

// Stage proposes the membership change on the shard.
func (cl *Client) Stage(newAddrs []string) error {
	var rep StageReply
	return cl.c.Call(ServiceName, "Stage", StageArgs{NewAddrs: newAddrs}, &rep)
}

// Cutover flips ownership of the staged arcs on the shard.
func (cl *Client) Cutover() error {
	var rep CutoverReply
	return cl.c.Call(ServiceName, "Cutover", CutoverArgs{}, &rep)
}

// Abort cancels the shard's staged reshape.
func (cl *Client) Abort() error {
	var rep AbortReply
	return cl.c.Call(ServiceName, "Abort", AbortArgs{}, &rep)
}

// Commit adopts the committed membership on the shard.
func (cl *Client) Commit(epoch uint64, addrs []string) error {
	var rep CommitReply
	return cl.c.Call(ServiceName, "Commit", CommitArgs{Epoch: epoch, Addrs: addrs}, &rep)
}

// Status reports the shard's ownership state.
func (cl *Client) Status() (StatusReply, error) {
	var rep StatusReply
	err := cl.c.Call(ServiceName, "Status", StatusArgs{}, &rep)
	return rep, err
}
