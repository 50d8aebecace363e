package repl

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"bitdew/internal/db"
)

// Promotion and boot-time ownership resolution.
//
// Ownership is ordered by claim epochs (TableOwner rows, shipped in every
// stream like ordinary rows): whoever adopts a range writes a claim strictly
// higher than every claim it can see, so "who owned this range most
// recently" is answerable from any replica namespace, across arbitrary
// kill/promote/restart interleavings. Promotion itself is guarded twice:
// a live earlier candidate always wins (the probe pass), and a promotion
// in flight is visible to probers as Promoting, which they treat as
// unresolved and wait out rather than assuming either outcome.

// bootProbePasses bounds how long a booting shard waits for an in-flight
// promotion of one of its ranges to resolve (passes x bootProbeDelay).
const bootProbePasses = 50

// Promote makes this shard the owner of rangeID, if every earlier candidate
// in the range's replica set is dead. It is called remotely (by the
// client's owner search, or by a peer's boot check) and locally.
// A no-op when the range is already served here.
func (n *Node) Promote(rangeID int) error {
	cands := n.successors(rangeID)
	pos := -1
	for i, c := range cands {
		if c == n.cfg.Shard {
			pos = i
			break
		}
	}
	if pos < 0 {
		return fmt.Errorf("repl: shard %d is not in range %d's replica set %v", n.cfg.Shard, rangeID, cands)
	}
	n.mu.Lock()
	if _, ok := n.serving[rangeID]; ok {
		n.mu.Unlock()
		return nil
	}
	if n.promoting[rangeID] {
		n.mu.Unlock()
		return fmt.Errorf("repl: promotion of range %d already in flight on shard %d", rangeID, n.cfg.Shard)
	}
	n.promoting[rangeID] = true
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		delete(n.promoting, rangeID)
		n.mu.Unlock()
	}()

	// Split-brain guard: any earlier candidate that answers at all — serving,
	// promoting, or merely alive — outranks us. Probes run outside n.mu.
	for _, c := range cands[:pos] {
		rep, err := n.probeOwner(n.addrOf(c), rangeID)
		if err != nil {
			continue // dead for this pass
		}
		return fmt.Errorf("repl: refusing to promote range %d on shard %d: earlier candidate shard %d is alive (serving=%v promoting=%v)",
			rangeID, n.cfg.Shard, rep.Shard, rep.Serving, rep.Promoting)
	}
	return n.commitPromotion(rangeID)
}

// commitPromotion adopts rangeID: pick the newest claim visible here, adopt
// that stream's rows for the range, bump the claim, and open the gate.
func (n *Node) commitPromotion(rangeID int) error {
	src, claim := n.bestClaim(rangeID)
	adopted := 0
	if src >= 0 {
		n.mu.Lock()
		place := n.place
		n.mu.Unlock()
		var err error
		adopted, err = n.adoptRows(src, func(k string) bool { return place.ShardOf(k) == rangeID })
		if err != nil {
			return fmt.Errorf("repl: promote range %d: %w", rangeID, err)
		}
	}
	if err := n.serve(rangeID, claim+1); err != nil {
		return fmt.Errorf("repl: promote range %d: %w", rangeID, err)
	}
	n.logf("repl: shard %d promoted to owner of range %d (claim %d, %d rows adopted from stream %d)",
		n.cfg.Shard, rangeID, claim+1, adopted, src)
	return nil
}

// adoptRows is the one place another shard's rows enter the live store: it
// copies the rows of stream src's namespace whose key passes want into the
// live tables, one batch per table — through the feed, so they ship onward
// to our own followers —
// and hands the scheduler rows to the scheduler. Failover promotion adopts
// one range from the best-claim stream; a reshape's commit adopts what homes
// here under the new placement from every move stream, rewriting locators
// that named the source's repository endpoints to ours.
func (n *Node) adoptRows(src int, want func(key string) bool) (adopted int, err error) {
	n.mu.Lock()
	var from string
	var srcEndpoints map[string]string
	if st := n.replicas[src]; st != nil {
		from, srcEndpoints = st.addr, st.endpoints
	}
	n.mu.Unlock()
	collect := func(table string) (map[string][]byte, error) {
		rows := make(map[string][]byte)
		err := n.rstore.Scan(nsTable(src, table), func(k string, v []byte) bool {
			if want(k) {
				rows[k] = append([]byte(nil), v...)
			}
			return true
		})
		if err != nil {
			return nil, fmt.Errorf("collecting shard %d's %s rows: %w", src, table, err)
		}
		return rows, nil
	}
	for _, tbl := range n.cfg.GatedTables {
		rows, err := collect(tbl)
		if err != nil {
			return adopted, err
		}
		keys := make([]string, 0, len(rows))
		for k := range rows {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		batch := make([]db.Mutation, len(keys))
		for i, k := range keys {
			v := rows[k]
			if tbl == n.cfg.ContentTable {
				v = n.rewriteLocators(srcEndpoints, v)
				n.pull.enqueue(k, from)
			}
			batch[i] = db.Mutation{Op: 'P', Table: tbl, Key: k, Value: v}
		}
		if err := n.cfg.Feed.Apply(batch); err != nil {
			return adopted, fmt.Errorf("adopting %d %s rows: %w", len(batch), tbl, err)
		}
		adopted += len(batch)
	}
	if n.cfg.SchedulerTable != "" && n.cfg.AdoptScheduler != nil {
		rows, err := collect(n.cfg.SchedulerTable)
		if err != nil {
			return adopted, err
		}
		if len(rows) > 0 {
			if err := n.cfg.AdoptScheduler(rows); err != nil {
				return adopted, fmt.Errorf("adopting scheduler rows: %w", err)
			}
			adopted += len(rows)
		}
	}
	return adopted, nil
}

// serve writes rangeID's ownership claim, marks the range served here and
// makes its other candidates ship targets.
func (n *Node) serve(rangeID int, claim uint64) error {
	if err := n.cfg.Feed.Put(TableOwner, ownerKey(rangeID), encodeClaim(claim)); err != nil {
		return fmt.Errorf("writing claim: %w", err)
	}
	n.mu.Lock()
	n.serving[rangeID] = claim
	n.shipToLocked(rangeID)
	n.mu.Unlock()
	return nil
}

// bestClaim picks the stream holding the newest ownership claim on rangeID
// visible at this shard: our own live store (src -1) or any follower
// namespace. Higher claim epoch wins; our own store wins ties, so a shard
// that was itself the last owner adopts from its own (freshest) rows.
func (n *Node) bestClaim(rangeID int) (src int, epoch uint64) {
	src = -1
	v, hasLocal, _ := n.cfg.Feed.Get(TableOwner, ownerKey(rangeID))
	if hasLocal {
		epoch = decodeClaim(v)
	}
	n.mu.Lock()
	sources := make([]int, 0, len(n.replicas))
	for s := range n.replicas {
		sources = append(sources, s)
	}
	n.mu.Unlock()
	sort.Ints(sources) // deterministic tie-break across equal remote claims
	for _, s := range sources {
		v, ok, err := n.rstore.Get(nsTable(s, TableOwner), ownerKey(rangeID))
		if err != nil || !ok {
			continue
		}
		// A remote claim-0 beats NO local claim: the original owner's
		// replicated rows are better than nothing.
		if e := decodeClaim(v); e > epoch || (src == -1 && !hasLocal && e == 0) {
			src, epoch = s, e
		}
	}
	return src, epoch
}

// claimedRanges lists every range this shard's live store holds an
// ownership claim for, plus its own home range.
func (n *Node) claimedRanges() []int {
	ranges := []int{n.cfg.Shard}
	seen := map[int]bool{n.cfg.Shard: true}
	n.mu.Lock()
	shards := n.place.Shards()
	n.mu.Unlock()
	_ = n.cfg.Feed.Scan(TableOwner, func(k string, _ []byte) bool {
		if r, err := strconv.Atoi(k); err == nil && !seen[r] && r >= 0 && r < shards {
			seen[r] = true
			ranges = append(ranges, r)
		}
		return true
	})
	sort.Ints(ranges)
	return ranges
}

// bootResolveRange resolves ownership of a range this shard has a stake in
// BEFORE the rpc server answers: if a peer candidate is serving it we stand
// down (its shipper, started at its promotion, makes us a follower); if a
// promotion is in flight we wait for it to resolve; if nobody has it, we
// adopt it with a bumped claim. The ordering — resolve first, serve after —
// is what makes a restart split-brain-free: no client or peer can observe
// this shard alive while its ownership is undecided.
func (n *Node) bootResolveRange(rangeID int) {
	cands := n.successors(rangeID)
	for pass := 0; pass < bootProbePasses; pass++ {
		ownerAddr := ""
		promoting := false
		for _, c := range cands {
			if c == n.cfg.Shard {
				continue
			}
			rep, err := n.probeOwner(n.addrOf(c), rangeID)
			if err != nil {
				continue
			}
			if rep.Serving {
				ownerAddr = n.addrOf(c)
				break
			}
			if rep.Promoting {
				promoting = true
			}
		}
		switch {
		case ownerAddr != "":
			// The owner has shipped to every member of the range's replica set
			// since it promoted (serve); its retrying shipper is our catch-up.
			n.logf("repl: shard %d range %d is owned by %s; standing down", n.cfg.Shard, rangeID, ownerAddr)
			return
		case promoting:
			// An in-flight promotion will land Serving or die; wait it out.
			if !sleepStop(n.stop, 100*time.Millisecond) {
				return
			}
		default:
			n.adopt(rangeID, true)
			return
		}
	}
	// The promotion never resolved (its shard died mid-flight): take over.
	n.adopt(rangeID, true)
}

// adopt marks rangeID served here under the claim our store holds for it.
// bump writes a claim strictly above that one — required on restart
// readoption, where a peer may have owned the range while we were down and
// died before we returned: without the bump, its (unreachable) higher claim
// would outrank our live one at the next promotion and resurrect staler
// rows.
func (n *Node) adopt(rangeID int, bump bool) {
	var claim uint64
	if v, ok, _ := n.cfg.Feed.Get(TableOwner, ownerKey(rangeID)); ok {
		claim = decodeClaim(v)
		if bump {
			claim++
		}
	}
	if err := n.serve(rangeID, claim); err != nil {
		n.logf("repl: shard %d adopting range %d: %v", n.cfg.Shard, rangeID, err)
		return
	}
	n.logf("repl: shard %d serving range %d (claim %d)", n.cfg.Shard, rangeID, claim)
}
