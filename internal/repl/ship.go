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
	// shipBatchMax bounds mutations per Apply frame, save a write that
	// crosses it (shipper.cut), and the data of one content pull.
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

	// pullBytesMax cuts a FetchContent reply: the holder stops adding data
	// once the reply carries this much content.
	pullBytesMax = 4 << 20
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
			n.startShipperLocked(n.addrOfLocked(c))
		}
	}
}

func (s *shipper) state() (acked uint64, synced bool, pendingContent int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.acked, s.synced, s.pending, s.err
}

// record notes what the follower last answered (zeroes: nothing yet).
func (s *shipper) record(synced bool, ack uint64, pendingContent int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.synced, s.acked, s.pending = synced, ack, pendingContent
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
		s.record(false, 0, 0)
		kept := snap[:0]
		for _, m := range snap {
			if s.ships(m) {
				kept = append(kept, m)
			}
		}
		again := s.pushSnapshot(seq, kept)
		if again {
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
		//vet:ignore deadlines retry-forever is the shipper's contract (a down follower catches up when it returns); every iteration passes through sleepStop, which selects on the shipper's stop channel — shutdown, not a deadline, bounds this loop
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
	s.record(true, rep.AckSeq, rep.PendingContent)
	return true
}

// stream ships tail mutations as they arrive, starting after sequence
// number sent. It returns true when the follower asked for a resync (or the
// subscription overflowed) and false when the shipper is stopping or the
// store closed.
func (s *shipper) stream(feed *db.Feed, sent uint64) (resync bool) {
	var batch []db.Mutation
	var next db.Mutation // when held, the row that opens the next frame
	held := false
	for {
		prev := sent
		if !held {
			select {
			case <-s.stop:
				return false
			case <-s.poke:
				// Heartbeat: an empty Apply refreshes the follower's ack and
				// pending-content report without shipping anything.
			case next, held = <-feed.C():
				if !held {
					return feed.Err() == db.ErrFeedLost
				}
			}
		}
		if held {
			batch, sent, next, held = s.cut(feed, next, batch)
		}
		args := ApplyArgs{Shard: s.n.cfg.Shard, Epoch: s.n.cfg.Feed.Epoch(), Prev: prev, Last: sent, Muts: batch}
		var rep ApplyReply
		if !s.call("Apply", args, &rep) {
			return false
		}
		s.record(!rep.NeedSync, rep.AckSeq, rep.PendingContent)
		if rep.NeedSync {
			return true
		}
		batch = batch[:0]
	}
}

// cut fills a frame, from row m on, with what the feed holds, up to
// shipBatchMax rows but never ending inside a write (whose rows share a
// Seq). It returns the frame, its last Seq, and the row met past the cap,
// if held.
func (s *shipper) cut(feed *db.Feed, m db.Mutation, batch []db.Mutation) ([]db.Mutation, uint64, db.Mutation, bool) {
	last := m.Seq
	for count := 0; ; count++ {
		if m.Seq != last && count >= shipBatchMax {
			return batch, last, m, true
		}
		if last = m.Seq; s.ships(m) {
			batch = append(batch, m)
		}
		var ok bool
		select {
		case m, ok = <-feed.C():
		default:
			// Dry, perhaps inside a write: once Seq returns, the feed has
			// buffered every row of the write it was feeding.
			s.n.cfg.Feed.Seq()
			select {
			case m, ok = <-feed.C():
			default:
			}
		}
		if !ok {
			return batch, last, m, false
		}
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
				signal(s.poke)
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
// metadata, from the first request. It pulls in batches — one FetchContent
// frame for everything one stream announced, up to shipBatchMax data — so a
// snapshot's worth of content costs a handful of round trips, not one per
// datum. Pulls are idempotent: already-present content is skipped, a pull
// that found a holder unreachable is retried, and one that every holder
// answered "not here" is dropped — the datum was deleted (or never
// uploaded), and waiting for it would wedge every convergence wait for ever.
// A copy follows its row out as well as in: the same loop drops the content
// of a followed datum whose locator row was deleted, after any batch in flight.
type puller struct {
	n    *Node
	kick chan struct{}

	mu     sync.Mutex
	want   map[string]string // queued: uid -> rpc address of the stream that announced it
	flying map[string]bool   // the batch in flight
	drop   map[string]bool   // deleted upstream: content to remove
}

func newPuller(n *Node) *puller {
	return &puller{n: n, kick: make(chan struct{}, 1),
		want: make(map[string]string), flying: make(map[string]bool), drop: make(map[string]bool)}
}

// enqueue schedules a pull of uid's content, announced by the stream from
// the shard at addr (no-op when already queued). The present-content check
// happens in the pull loop, NOT here: enqueue is called with n.mu held and
// the backend probe is real I/O on dir backends.
func (p *puller) enqueue(uid, from string) {
	p.mu.Lock()
	if _, ok := p.want[uid]; !ok {
		p.want[uid] = from
	}
	p.mu.Unlock()
	signal(p.kick)
}

// cancel drops uid's pull, and with drop marks its content for removal: its
// locator row was deleted upstream. One already in flight finishes and is not
// requeued; the removal runs after it. Like enqueue, cancel leaves the I/O to
// the pull loop.
func (p *puller) cancel(uid string, drop bool) {
	p.mu.Lock()
	delete(p.want, uid)
	delete(p.flying, uid)
	if drop {
		p.drop[uid] = true
	}
	p.mu.Unlock()
	signal(p.kick)
}

// pending counts queued, in-flight and removal-pending pulls.
func (p *puller) pending() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.want) + len(p.flying) + len(p.drop)
}

// dropDeleted removes the content of the data cancel marked. A failed
// removal is logged, not retried: waiting on it would wedge every
// convergence wait.
func (p *puller) dropDeleted() {
	p.mu.Lock()
	uids := make([]string, 0, len(p.drop))
	for uid := range p.drop {
		uids = append(uids, uid)
	}
	p.mu.Unlock()
	for _, uid := range uids {
		if err := p.n.cfg.Content.Delete(uid); err != nil {
			p.n.logf("repl: shard %d: dropping deleted content %s: %v", p.n.cfg.Shard, uid, err)
		}
		p.mu.Lock()
		delete(p.drop, uid)
		p.mu.Unlock()
	}
}

// pop takes a queued pull and, up to one frame's worth, every other one
// announced by the same stream.
func (p *puller) pop() (uids []string, from string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for uid, f := range p.want {
		if len(uids) == 0 {
			from = f
		}
		if f == from && len(uids) < shipBatchMax {
			uids = append(uids, uid)
			delete(p.want, uid)
			p.flying[uid] = true
		}
	}
	return uids, from
}

// finish retires the batch in flight; the pulls that must be retried requeue
// for the next round, unless they were cancelled meanwhile.
func (p *puller) finish(retry []string, from string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, uid := range retry {
		if _, again := p.want[uid]; p.flying[uid] && !again {
			p.want[uid] = from
		}
	}
	clear(p.flying)
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
			p.dropDeleted()
			uids, from := p.pop()
			if len(uids) == 0 {
				break
			}
			//vet:ignore deadlines the loop drains a finite queue (every iteration pops or breaks), and a round that retired nothing breaks out through sleepStop's stop-gated backoff — it cannot spin against dead peers
			retry := p.pull(uids, from)
			p.finish(retry, from)
			// Nothing retired: a holder is unreachable (the whole replica set
			// may be mid-failover). Back off before the next round instead of
			// spinning against dead peers.
			if len(retry) == len(uids) && !sleepStop(p.n.stop, 200*time.Millisecond) {
				return
			}
		}
	}
}

// pull fetches the batch's content: one frame to the stream that announced
// it, then, for what that shard does not hold, the other members of each
// datum's replica set. A pull is over when the content is present locally or
// every holder answered that it has none; retry lists the others — a holder
// could not be asked, or a reply stopped short of them.
func (p *puller) pull(uids []string, from string) (retry []string) {
	n := p.n
	missing := make([]string, 0, len(uids))
	for _, uid := range uids {
		if _, err := n.cfg.Content.Size(uid); err != nil {
			missing = append(missing, uid)
		}
	}
	absent, retry, err := p.fetch(from, missing)
	if err != nil {
		absent = missing // the stream's source could not be asked; the others may
	}
	for _, uid := range absent {
		over := err == nil
		n.mu.Lock()
		members := n.successorsLocked(n.place.ShardOf(uid))
		n.mu.Unlock()
		for _, m := range members {
			addr := n.addrOf(m)
			if addr == from {
				continue
			}
			notHere, short, err := p.fetch(addr, []string{uid})
			if err != nil || len(short) > 0 {
				over = false
			} else if len(notHere) == 0 {
				over = true // stored
				break
			}
		}
		if !over {
			retry = append(retry, uid)
		}
	}
	return retry
}

// fetch asks the shard at addr for uids' content in one frame and stores
// what it holds. absent are the data it does not hold (all of them, for an
// address that is unknown or our own); short are the ones its reply stopped
// short of, or whose content could not be stored here. An error means it
// answered for none.
func (p *puller) fetch(addr string, uids []string) (absent, short []string, err error) {
	n := p.n
	if len(uids) == 0 || addr == "" || addr == n.self() {
		return uids, nil, nil
	}
	var rep FetchContentReply
	if err := n.ask(addr, shipCallTimeout, "FetchContent", FetchContentArgs{UIDs: uids}, &rep); err != nil {
		return nil, nil, err
	}
	answered := min(len(rep.Items), len(uids))
	for i, item := range rep.Items[:answered] {
		if !item.Found {
			absent = append(absent, uids[i])
		} else if err := n.cfg.Content.Put(uids[i], item.Content); err != nil {
			n.logf("repl: shard %d: storing pulled content %s: %v", n.cfg.Shard, uids[i], err)
			short = append(short, uids[i])
		}
	}
	return absent, append(short, uids[answered:]...), nil
}
