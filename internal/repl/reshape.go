package repl

import (
	"fmt"
	"slices"
	"time"

	"bitdew/internal/codec"
	"bitdew/internal/data"
	"bitdew/internal/db"
	"bitdew/internal/dht"
)

// cutoverWait bounds a cutover's wait for the targets' acks: the moving
// tail is already in the feed subscription when the barrier is read, so
// this only guards against a wedged target.
const cutoverWait = 60 * time.Second

// staging is one staged outbound move: this shard's arcs that change owner
// under the proposed membership, and one filtered shipper per target.
type staging struct {
	arcs     []dht.Range
	shippers []*shipper
	stop     chan struct{}
	barrier  uint64 // the feed's sequence number the targets acked at Cutover
}

// Stage prepares this shard's side of a membership change to newAddrs: it
// computes the arcs that leave this shard, starts a shipper filtered to
// them towards each new home, and waits until every target follows — synced,
// acked, content pulled — while the shard keeps serving. The reshape stays
// staged (writes landing on moving keys keep flowing to the targets) until
// Cutover or Abort, which is also what ends a Stage still waiting on an
// unreachable target. One reshape may be staged at a time.
func (n *Node) Stage(newAddrs []string) error {
	if len(newAddrs) < 1 {
		return fmt.Errorf("repl: staging an empty membership")
	}
	var err error
	n.mu.Lock()
	switch {
	case n.stopped:
		err = fmt.Errorf("repl: shard %d is stopped", n.cfg.Shard)
	case n.staged != nil:
		err = fmt.Errorf("repl: shard %d already staging a reshape (abort it first)", n.cfg.Shard)
	case n.cfg.Replicas > 1:
		// What is still missing is server-side. Ship targets are chosen
		// when a range starts being served and not again when a commit
		// changes its successors, and a move stream feeds one target where
		// a moved range needs R followers. Clients already follow
		// membership epochs at every R (core.ShardSet starts a fresh owner
		// table per epoch).
		err = fmt.Errorf("repl: shard %d: a replicated plane (R=%d) does not reshape yet", n.cfg.Shard, n.cfg.Replicas)
	}
	if err != nil {
		n.mu.Unlock()
		return err
	}
	rs := &staging{stop: make(chan struct{})}
	perTarget := make(map[int][]dht.Range)
	for _, mv := range dht.Diff(n.place, dht.NewPlacement(len(newAddrs))) {
		if mv.From == n.cfg.Shard {
			rs.arcs = append(rs.arcs, mv.Range)
			perTarget[mv.To] = append(perTarget[mv.To], mv.Range)
		}
	}
	for to, arcs := range perTarget {
		s := n.newShipper(newAddrs[to], rs.stop, arcs)
		rs.shippers = append(rs.shippers, s)
		n.wg.Add(1)
		go s.run()
	}
	n.staged = rs
	n.mu.Unlock()

	if err := n.waitShipped(rs.shippers, n.cfg.Feed.Seq, rs.stop, time.Time{}); err != nil {
		n.abort(rs)
		return err
	}
	n.logf("repl: shard %d staged %d arcs onto %d targets of a %d-shard membership",
		n.cfg.Shard, len(rs.arcs), len(rs.shippers), len(newAddrs))
	return nil
}

// Cutover flips ownership of the staged arcs: the departure gate engages
// (moving keys refuse with ErrNotOwner from here on), then every target must
// acknowledge the feed's sequence number AFRESH — an ack from before the
// gate proves nothing about a target that has since restarted and lost its
// namespace. Because the gate precedes the barrier read, no mutation of a
// moving key can be assigned a sequence after the barrier — once it is
// acked, the targets hold every moving row. On error the caller should
// Abort (the gate disengages and the source resumes serving the arcs).
func (n *Node) Cutover() error {
	n.mu.Lock()
	rs := n.staged
	if rs == nil {
		n.mu.Unlock()
		return fmt.Errorf("repl: shard %d has no staged reshape", n.cfg.Shard)
	}
	n.departed = rs.arcs
	n.mu.Unlock()

	barrier := n.cfg.Feed.Seq()
	n.mu.Lock()
	rs.barrier = barrier
	n.mu.Unlock()
	for _, s := range rs.shippers {
		s.record(false, 0, 0) // forget what it answered before the gate
	}
	atBarrier := func() uint64 { return barrier }
	if err := n.waitShipped(rs.shippers, atBarrier, rs.stop, time.Now().Add(cutoverWait)); err != nil {
		return err
	}
	n.logf("repl: shard %d cut over %d arcs at seq %d", n.cfg.Shard, len(rs.arcs), barrier)
	return nil
}

// Abort cancels a staged reshape: the departure gate disengages and the
// move shippers stop. Rows already shipped stay in the targets' namespaces —
// never visible, replaced wholesale by a re-stage, dropped at the targets'
// next commit.
func (n *Node) Abort() { n.abort(nil) }

// abort cancels the staged reshape — only if it is rs, when rs is given: a
// Stage that wakes up aborted must not cancel the re-stage that followed.
func (n *Node) abort(rs *staging) {
	n.mu.Lock()
	staged := n.staged
	if staged == nil || (rs != nil && rs != staged) {
		n.mu.Unlock()
		return
	}
	n.staged = nil
	n.departed = nil
	n.mu.Unlock()
	close(staged.stop)
}

// Commit adopts a committed membership. It is what a coordinator calls on
// EVERY shard — sources, targets and bystanders — after all cutovers
// succeeded: a target first adopts, from its move streams, the rows that
// home here under the new placement; then the new membership — epoch,
// addresses and placement together — becomes live and is what the ring
// service serves, both gates clear, the state persists, and rows that no
// longer home here are garbage-collected. A source first verifies that every
// target still holds what it was shipped (stillShipped), and refuses —
// keeping the rows behind its departure gate — when one does not.
// Re-committing an already-adopted epoch is a no-op.
func (n *Node) Commit(epoch uint64, addrs []string) error {
	if len(addrs) < 1 {
		return fmt.Errorf("repl: committing an empty membership")
	}
	n.mu.Lock()
	if epoch < n.epoch || (epoch == n.epoch && n.place.Shards() == len(addrs)) {
		defer n.mu.Unlock()
		if epoch < n.epoch {
			return fmt.Errorf("repl: shard %d at epoch %d refuses commit of older epoch %d", n.cfg.Shard, n.epoch, epoch)
		}
		return nil
	}
	var moves []int // sources of the move streams held here
	for src, st := range n.replicas {
		if st.arcs != nil {
			moves = append(moves, src)
		}
	}
	claim := n.serving[n.cfg.Shard]
	var shipped []*shipper
	var barrier uint64
	if n.staged != nil {
		shipped, barrier = n.staged.shippers, n.staged.barrier
	}
	n.mu.Unlock()
	if err := n.stillShipped(shipped, barrier); err != nil {
		return fmt.Errorf("repl: shard %d commit of epoch %d: %w", n.cfg.Shard, epoch, err)
	}

	next := dht.NewPlacement(len(addrs))
	homesHere := func(k string) bool { return next.ShardOf(k) == n.cfg.Shard }
	adopted := 0
	for _, src := range moves {
		rows, err := n.adoptRows(src, homesHere)
		if err != nil {
			return fmt.Errorf("repl: shard %d commit of epoch %d: %w", n.cfg.Shard, epoch, err)
		}
		adopted += rows
	}
	if adopted > 0 {
		if err := n.serve(n.cfg.Shard, claim+1); err != nil {
			return fmt.Errorf("repl: shard %d commit of epoch %d: %w", n.cfg.Shard, epoch, err)
		}
	}

	n.mu.Lock()
	rs := n.staged
	n.staged, n.departed, n.inbound = nil, nil, nil
	n.epoch, n.addrs, n.place = epoch, slices.Clone(addrs), next
	for _, src := range moves {
		// The stream's bookkeeping stays (its source has yet to commit, and
		// asks after it first); its rows and its hold on the gate go.
		st := n.replicas[src]
		n.clearNamespaceLocked(src, st)
		st.arcs, st.endpoints = nil, nil
	}
	n.mu.Unlock()
	if rs != nil {
		close(rs.stop)
	}

	n.persistState(epoch, addrs)
	n.collectGhosts()
	n.logf("repl: shard %d committed epoch %d over %d shards (%d rows adopted)", n.cfg.Shard, epoch, len(addrs), adopted)
	return nil
}

// stillShipped is a source's last look before its commit garbage-collects
// the moved rows: each target must still hold this boot's stream, up to the
// cutover barrier. A target that restarted since the cutover lost its
// namespace — if it committed meanwhile, it adopted nothing and cannot know —
// and answers NeedSync; one whose shipper resynced it in time holds the rows
// again and passes. The stream's bookkeeping outlives the target's own
// commit for exactly this question.
func (n *Node) stillShipped(shippers []*shipper, barrier uint64) error {
	for _, s := range shippers {
		var rep ApplyReply
		beat := ApplyArgs{Shard: n.cfg.Shard, Epoch: n.cfg.Feed.Epoch()}
		if err := n.ask(s.target, shipCallTimeout, "Apply", beat, &rep); err != nil {
			return fmt.Errorf("target %s: %w", s.target, err)
		}
		if rep.NeedSync || rep.AckSeq < barrier {
			return fmt.Errorf("target %s no longer holds the moved rows (acked %d of %d, resync wanted: %v); they stay here",
				s.target, rep.AckSeq, barrier, rep.NeedSync)
		}
	}
	return nil
}

func (n *Node) persistState(epoch uint64, addrs []string) {
	raw, err := codec.Marshal(persistedState{Epoch: epoch, Addrs: addrs})
	if err != nil {
		n.logf("repl: shard %d: encoding state: %v", n.cfg.Shard, err)
		return
	}
	// Through Inner: membership state is local bookkeeping, not a row that
	// should ever enter a stream.
	if err := n.cfg.Feed.Inner().Put(tableState, stateKey, raw); err != nil {
		n.logf("repl: shard %d: persisting state: %v", n.cfg.Shard, err)
	}
}

// collectGhosts deletes the rows whose range is not served here under the
// committed placement, one batch per table: the rows a cutover moved away.
// Scheduler rows unschedule through the scheduler so its in-memory Θ stays
// coherent with the persisted table. Repository content is deliberately
// kept — stale cached locators keep reading the old copy until every client
// has healed onto the new epoch.
func (n *Node) collectGhosts() {
	for _, table := range n.moveTables {
		keys, err := n.cfg.Feed.Keys(table)
		if err != nil {
			n.logf("repl: shard %d: listing %s: %v", n.cfg.Shard, table, err)
			continue
		}
		var batch []db.Mutation
		n.mu.Lock()
		for _, k := range keys {
			if _, served := n.serving[n.place.ShardOf(k)]; !served {
				batch = append(batch, db.Mutation{Op: 'D', Table: table, Key: k})
			}
		}
		n.mu.Unlock()
		if len(batch) == 0 {
			continue
		}
		if table == n.cfg.SchedulerTable && n.cfg.DropScheduler != nil {
			if err := n.cfg.DropScheduler(batch); err == nil {
				continue // the scheduler wrote the rows' deletion itself
			}
		}
		if err := n.cfg.Feed.Apply(batch); err != nil {
			n.logf("repl: shard %d: dropping %d ghosts of %s: %v", n.cfg.Shard, len(batch), table, err)
		}
	}
}

// rewriteLocators re-homes an adopted locator row: locators whose host was
// the source shard's repository endpoint for a protocol now carry this
// shard's own endpoint, so post-commit fetches land where the content now
// lives. Locators pointing at worker hosts (peer copies) pass through
// untouched — those copies did not move. Without source endpoints (a
// failover's stream) the row is adopted verbatim.
func (n *Node) rewriteLocators(srcEndpoints map[string]string, raw []byte) []byte {
	if len(srcEndpoints) == 0 || n.cfg.Endpoints == nil {
		return raw
	}
	own := n.cfg.Endpoints()
	if len(own) == 0 {
		return raw
	}
	var locs []data.Locator
	if err := codec.Unmarshal(raw, &locs); err != nil {
		return raw // not a locator list; adopt verbatim
	}
	changed := false
	for i := range locs {
		if locs[i].Host == "" || srcEndpoints[locs[i].Protocol] != locs[i].Host {
			continue
		}
		if ownAddr, ok := own[locs[i].Protocol]; ok && ownAddr != locs[i].Host {
			locs[i].Host = ownAddr
			changed = true
		}
	}
	if !changed {
		return raw
	}
	if out, err := codec.Marshal(locs); err == nil {
		return out
	}
	return raw
}
