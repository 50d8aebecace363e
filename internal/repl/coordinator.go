package repl

import (
	"fmt"
	"sync"
)

// Grow splices a new shard into the plane as the last shard of addrs;
// shards[i] speaks to addrs[i]. Every current shard stages its moving ranges
// onto the joiner in parallel while it keeps serving, ownership cuts over
// shard by shard, and addrs commits at epoch everywhere, the joiner first.
// The joiner must already run as the last shard of addrs: it boots believing
// the NEW placement, so adopted rows pass its gate the moment it commits,
// and no client can reach it before the commit publishes its address.
//
// Grow and Drain report whether the change committed. false means it was
// aborted with nothing changed and can simply be run again; true beside an
// error means the membership did change but some shard refused the commit.
func Grow(shards []*Client, addrs []string, epoch uint64) (committed bool, err error) {
	n := len(addrs) - 1
	if n < 1 || len(shards) != len(addrs) {
		return false, fmt.Errorf("repl: growing to %d shards over %d connections", len(addrs), len(shards))
	}
	st, err := shards[n].Status()
	if err != nil {
		return false, fmt.Errorf("repl: joining shard unreachable: %w", err)
	}
	if st.Self != n || st.Shards != len(addrs) {
		return false, fmt.Errorf("repl: joining shard runs as shard %d of %d, want shard %d of %d",
			st.Self, st.Shards, n, len(addrs))
	}
	return reshape(shards, 0, n, addrs, epoch)
}

// Drain retires the plane's last shard onto addrs, the membership without
// it (shards still lists it, last): its rows, scheduler entries and content
// stream to their new homes among the survivors, ownership cuts over, and
// addrs commits at epoch, the drained shard last: from there it refuses
// every data operation with the not-owner handoff and garbage-collects its
// rows, while its membership table points lingering clients at the
// survivors.
func Drain(shards []*Client, addrs []string, epoch uint64) (committed bool, err error) {
	n := len(shards)
	if n < 2 || len(addrs) != n-1 {
		return false, fmt.Errorf("repl: cannot drain a plane of %d shards down to %d", n, len(addrs))
	}
	return reshape(shards, n-1, n, addrs, epoch)
}

// reshape runs one membership change: all[from:to] are the shards losing
// ranges, all is every shard that adopts the new membership. Until every
// source has cut over, any failure aborts every source — their departure
// gates disengage and they resume serving the moving ranges — and nothing
// commits. Past that point there is no way back: the first error is returned
// but does not stop the commits, with one exception. The shards that only
// gain ranges commit first — their adopt puts the moved rows in a live store
// before any source's commit garbage-collects the originals — so when one of
// them fails, no source is asked to commit at all. A shard that missed the
// commit keeps the moving rows (a source in its store, behind the departure
// gate; a target in its namespace, refusing the arcs) until the commit is
// sent again.
func reshape(all []*Client, from, to int, addrs []string, epoch uint64) (committed bool, err error) {
	sources := all[from:to]
	abort := func(phase string, i int, err error) (bool, error) {
		for _, src := range sources {
			//vet:ignore errlost abort is best-effort cleanup after the failure being reported
			src.Abort()
		}
		return false, fmt.Errorf("repl: shard %d %s: %w", from+i, phase, err)
	}
	errs := make([]error, len(sources))
	var wg sync.WaitGroup
	for i, src := range sources {
		wg.Add(1)
		go func(i int, src *Client) {
			defer wg.Done()
			errs[i] = src.Stage(addrs)
		}(i, src)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return abort("stage", i, err)
		}
	}
	for i, src := range sources {
		if err := src.Cutover(); err != nil {
			return abort("cutover", i, err)
		}
	}
	var first error
	commit := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if err := all[i].Commit(epoch, addrs); err != nil && first == nil {
				first = fmt.Errorf("repl: shard %d commit: %w", i, err)
			}
		}
	}
	commit(0, from)
	commit(to, len(all))
	if first == nil {
		commit(from, to)
	}
	return true, first
}
