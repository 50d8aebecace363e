package repl

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"bitdew/internal/db"
	"bitdew/internal/dht"
	"bitdew/internal/rpc"
)

const (
	// shipBatchMax bounds mutations per Apply frame; the shipper drains the
	// feed opportunistically up to it, so a bursty primary ships large
	// batches and an idle one ships singles with no added latency.
	shipBatchMax = 256
	// shipBuffer is the feed subscription depth; a follower that falls this
	// far behind is cut loose (db.ErrFeedLost) and resynced from a snapshot
	// rather than stalling the primary's write path.
	shipBuffer = 8192
	// shipCallTimeout bounds each Apply/Sync round trip. Snapshots can be
	// large, so this is generous; the stop channel still bounds shutdown.
	shipCallTimeout = 30 * time.Second

	shipBackoff    = 50 * time.Millisecond
	shipBackoffMax = 2 * time.Second
)

// shipper streams this shard's feed to one follower: snapshot first, then
// the tail in batches, tracking the follower's acked sequence number. It
// survives follower restarts (NeedSync → fresh snapshot) and outlives
// transport failures (the lazy reconnecting client plus its own stop-gated
// retry loop), so a successor that is down simply catches up when it
// returns. A reshape's shipper is the same thing filtered to the moving
// arcs; it additionally gives up when the target REFUSES a frame, so a
// stage fails instead of retrying a refusal for ever.
type shipper struct {
	n      *Node
	target string
	client rpc.Client
	poke   chan struct{} // heartbeat requests from waitShipped
	// stop ends the shipper: the node's own stop channel for a steady-state
	// shipper, the reshape's for a move shipper.
	stop <-chan struct{}
	// arcs, when set, filter the stream to the gated and scheduler tables' rows
	// whose key lies on one of them (a reshape's moving arcs).
	arcs []dht.Range

	mu      sync.Mutex
	acked   uint64
	synced  bool
	pending int   // follower's reported outstanding content pulls
	err     error // a move shipper's fatal refusal
}

// newShipper builds (but does not start) a shipper to addr.
func (n *Node) newShipper(addr string, stop <-chan struct{}, arcs []dht.Range) *shipper {
	return &shipper{
		n:      n,
		target: addr,
		client: rpc.DialAutoLazy(addr, n.dialOpts(addr, shipCallTimeout)...),
		poke:   make(chan struct{}, 1),
		stop:   stop,
		arcs:   arcs,
	}
}

// startShipperLocked registers and starts a steady-state shipper to addr
// (idempotent; never to ourselves). Caller holds n.mu.
func (n *Node) startShipperLocked(addr string) {
	if addr == "" || addr == n.self() {
		return
	}
	if _, ok := n.shippers[addr]; ok {
		return
	}
	s := n.newShipper(addr, n.stop, nil)
	n.shippers[addr] = s
	n.wg.Add(1)
	go s.run()
}

// shipToLocked makes every other member of rangeID's replica set a ship
// target: they are the range's next line of defence, and (when a dead
// primary returns) the retrying shipper doubles as its rejoin catch-up.
// Caller holds n.mu.
func (n *Node) shipToLocked(rangeID int) {
	for _, c := range n.successorsLocked(rangeID) {
		if c != n.cfg.Shard {
			n.startShipperLocked(n.addrOf(c))
		}
	}
}

func (s *shipper) state() (acked uint64, synced bool, pendingContent int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.acked, s.synced, s.pending, s.err
}

func (s *shipper) record(ack uint64, pendingContent int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.acked = ack
	s.pending = pendingContent
}

func (s *shipper) setSynced(v bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.synced = v
}

// ships reports whether mutation m belongs in this shipper's stream.
func (s *shipper) ships(m db.Mutation) bool {
	return s.arcs == nil || (slices.Contains(s.n.moveTables, m.Table) && onAny(s.arcs, dht.HashID(m.Key)))
}

// run is the ship cycle: cut an atomic snapshot+subscription, push the
// snapshot until the follower acknowledges it, then stream the tail. Any
// NeedSync, epoch drift or lost subscription restarts the cycle.
func (s *shipper) run() {
	defer s.n.wg.Done()
	defer s.client.Close()
	for {
		select {
		case <-s.stop:
			return
		default:
		}
		seq, snap, feed, err := s.n.cfg.Feed.SnapshotAndFollow(shipBuffer)
		if err != nil {
			return // store closed: the container is shutting down
		}
		s.setSynced(false)
		kept := snap[:0]
		for _, m := range snap {
			if s.ships(m) {
				kept = append(kept, m)
			}
		}
		again := s.pushSnapshot(seq, kept)
		if again {
			s.setSynced(true)
			s.n.logf("repl: shard %d shipped snapshot seq %d (%d rows) to %s", s.n.cfg.Shard, seq, len(kept), s.target)
			again = s.stream(feed, seq)
		}
		s.n.cfg.Feed.Unsubscribe(feed)
		if !again {
			return
		}
		// Resync requested: start over from a fresh snapshot.
	}
}

// call sends one frame until it is answered; false means the shipper
// stopped (or, for a move shipper, was refused — see s.err). Sync replaces
// the namespace wholesale and Apply is sequence-numbered and
// duplicate-tolerant on the follower, so resending after ANY failure —
// transport or deadline — can never double-apply; this is the designed
// exception to the plane's never-replay-a-possibly-executed-call rule.
func (s *shipper) call(method string, args, reply any) bool {
	backoff := shipBackoff
	for {
		//vet:ignore deadlineprop retry-forever is the shipper's contract (a down follower catches up when it returns); every iteration passes through sleepStop, which selects on the shipper's stop channel — shutdown, not a deadline, bounds this loop
		err := s.client.Call(ServiceName, method, args, reply)
		if err == nil {
			return true
		}
		if s.arcs != nil && !errors.Is(err, rpc.ErrTransport) && !errors.Is(err, rpc.ErrDeadline) {
			s.mu.Lock()
			s.err = fmt.Errorf("repl: shard %d shipping moving arcs to %s: %w", s.n.cfg.Shard, s.target, err)
			s.mu.Unlock()
			return false
		}
		if !sleepStop(s.stop, backoff) {
			return false
		}
		if backoff *= 2; backoff > shipBackoffMax {
			backoff = shipBackoffMax
		}
	}
}

// pushSnapshot sends the Sync frame until the follower accepts it.
func (s *shipper) pushSnapshot(seq uint64, snap []db.Mutation) bool {
	n := s.n
	args := SyncArgs{Shard: n.cfg.Shard, Epoch: n.cfg.Feed.Epoch(), Seq: seq, Snapshot: snap, Addr: n.self(), Arcs: s.arcs}
	if s.arcs != nil {
		args.Member = n.Epoch()
		if n.cfg.Endpoints != nil {
			args.Endpoints = n.cfg.Endpoints()
		}
	}
	var rep SyncReply
	if !s.call("Sync", args, &rep) {
		return false
	}
	s.record(rep.AckSeq, rep.PendingContent)
	return true
}

// stream ships tail mutations as they arrive, starting after sequence
// number sent. It returns true when the follower asked for a resync (or the
// subscription overflowed) and false when the shipper is stopping or the
// store closed.
func (s *shipper) stream(feed *db.Feed, sent uint64) (resync bool) {
	var batch []db.Mutation
	for {
		prev := sent
		select {
		case <-s.stop:
			return false
		case <-s.poke:
			// Heartbeat: an empty Apply refreshes the follower's ack and
			// pending-content report without shipping anything.
		case m, ok := <-feed.C():
			if !ok {
				return feed.Err() == db.ErrFeedLost
			}
			// Drain what is already buffered, up to one frame's worth, and
			// ship it the moment the channel runs dry (a closed channel is
			// noticed by the next outer receive).
			for count := 1; ok; count++ {
				if sent = m.Seq; s.ships(m) {
					batch = append(batch, m)
				}
				if count == shipBatchMax {
					break
				}
				select {
				case m, ok = <-feed.C():
				default:
					ok = false
				}
			}
		}
		args := ApplyArgs{Shard: s.n.cfg.Shard, Epoch: s.n.cfg.Feed.Epoch(), Prev: prev, Last: sent, Muts: batch}
		var rep ApplyReply
		if !s.call("Apply", args, &rep) {
			return false
		}
		s.record(rep.AckSeq, rep.PendingContent)
		if rep.NeedSync {
			return true
		}
		batch = batch[:0]
	}
}

// waitShipped blocks until every shipper is synced, has been acknowledged
// up to seq() and reports no outstanding content pulls — or a shipper was
// refused, stop closes, or the deadline (zero: none) passes. Idle shippers
// are poked to heartbeat so a follower's pull progress becomes visible
// without new writes.
func (n *Node) waitShipped(shippers []*shipper, seq func() uint64, stop <-chan struct{}, deadline time.Time) error {
	for {
		want := seq()
		lagging := 0
		for _, s := range shippers {
			acked, synced, pendingContent, err := s.state()
			if err != nil {
				return err
			}
			if !synced || acked < want || pendingContent > 0 {
				lagging++
				select {
				case s.poke <- struct{}{}:
				default:
				}
			}
		}
		if lagging == 0 {
			return nil
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return fmt.Errorf("repl: shard %d: %d of %d targets still lagging (feed seq %d)",
				n.cfg.Shard, lagging, len(shippers), want)
		}
		if !sleepStop(stop, 10*time.Millisecond) {
			return fmt.Errorf("repl: shard %d stopped waiting for its targets", n.cfg.Shard)
		}
	}
}

// WaitReplicated blocks until every steady-state ship target has
// acknowledged the feed's current sequence number and reports no
// outstanding content pulls, or the timeout passes.
func (n *Node) WaitReplicated(timeout time.Duration) error {
	n.mu.Lock()
	shippers := make([]*shipper, 0, len(n.shippers))
	for _, s := range n.shippers {
		shippers = append(shippers, s)
	}
	n.mu.Unlock()
	return n.waitShipped(shippers, n.cfg.Feed.Seq, n.stop, time.Now().Add(timeout))
}

// puller fetches content for locator rows the follower streams in, storing
// it in this shard's own backend so a promoted shard serves bytes, not just
// metadata, from the first request. Pulls are idempotent: already-present
// content is skipped, a pull that found a holder unreachable is retried,
// and one that every holder answered "not here" is dropped — the datum was
// deleted (or never uploaded), and waiting for it would wedge every
// convergence wait for ever.
type puller struct {
	n    *Node
	kick chan struct{}

	mu       sync.Mutex
	queue    []string
	queued   map[string]string // uid -> rpc address of the stream that announced it
	inflight int
}

func newPuller(n *Node) *puller {
	return &puller{n: n, kick: make(chan struct{}, 1), queued: make(map[string]string)}
}

// enqueue schedules a pull of uid's content, announced by the stream from
// the shard at addr (no-op when already queued). The present-content check
// happens in the pull loop, NOT here: enqueue is called with n.mu held and
// the backend probe is real I/O on dir backends.
func (p *puller) enqueue(uid, from string) {
	p.mu.Lock()
	if _, ok := p.queued[uid]; !ok {
		p.queued[uid] = from
		p.queue = append(p.queue, uid)
	}
	p.mu.Unlock()
	select {
	case p.kick <- struct{}{}:
	default:
	}
}

// cancel drops uid's queued pull: its locator row was deleted upstream. A
// pull already in flight finishes and is not requeued.
func (p *puller) cancel(uid string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.queued[uid]; !ok {
		return
	}
	delete(p.queued, uid)
	for i, q := range p.queue {
		if q == uid {
			p.queue = append(p.queue[:i], p.queue[i+1:]...)
			break
		}
	}
}

// pending counts queued plus in-flight pulls.
func (p *puller) pending() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue) + p.inflight
}

func (p *puller) pop() (uid, from string, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.queue) == 0 {
		return "", "", false
	}
	uid = p.queue[0]
	p.queue = p.queue[1:]
	p.inflight++
	return uid, p.queued[uid], true
}

// finish retires an in-flight pull; one that must be retried requeues for
// the next round, unless it was cancelled meanwhile.
func (p *puller) finish(uid string, done bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.inflight--
	if _, ok := p.queued[uid]; !ok {
		return
	}
	if done {
		delete(p.queued, uid)
	} else {
		p.queue = append(p.queue, uid)
	}
}

func (p *puller) run() {
	defer p.n.wg.Done()
	for {
		select {
		case <-p.n.stop:
			return
		case <-p.kick:
		}
		for {
			uid, from, ok := p.pop()
			if !ok {
				break
			}
			//vet:ignore deadlineprop the loop drains a finite queue (every iteration pops or breaks), and a round of failed pulls breaks out through sleepStop's stop-gated backoff — it cannot spin against dead peers
			done := p.pullOne(uid, from)
			p.finish(uid, done)
			// A holder was unreachable (the whole replica set may be mid-
			// failover): the pull went back on the queue; back off before
			// the next one instead of spinning against dead peers.
			if !done && !sleepStop(p.n.stop, 200*time.Millisecond) {
				return
			}
		}
	}
}

// pullOne fetches uid's content from the stream that announced it, then
// from any member of its range's replica set. True means the pull is over:
// the content is present locally, or every holder answered that it has
// none. False means a holder could not be asked — retry.
func (p *puller) pullOne(uid, from string) bool {
	n := p.n
	if n.cfg.HasContent != nil && n.cfg.HasContent(uid) {
		return true
	}
	if n.cfg.PutContent == nil {
		return true // container ships metadata only
	}
	holders := []string{from}
	n.mu.Lock()
	for _, member := range n.successorsLocked(n.place.ShardOf(uid)) {
		holders = append(holders, n.addrOf(member))
	}
	n.mu.Unlock()
	asked := map[string]bool{"": true, n.self(): true}
	over := true
	for _, addr := range holders {
		if asked[addr] {
			continue
		}
		asked[addr] = true
		var rep FetchContentReply
		if err := n.ask(addr, shipCallTimeout, "FetchContent", FetchContentArgs{UID: uid}, &rep); err != nil {
			over = false
			continue
		}
		if !rep.Found {
			continue
		}
		if err := n.cfg.PutContent(uid, rep.Content); err != nil {
			n.logf("repl: shard %d: storing pulled content %s: %v", n.cfg.Shard, uid, err)
			return false
		}
		return true
	}
	return over
}
