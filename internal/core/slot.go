package core

import (
	"errors"
	"time"

	"bitdew/internal/data"
	"bitdew/internal/repl"
	"bitdew/internal/rpc"
)

// The retry contract of the client, in one place.
//
// A call is sent again only when its error proves it never executed:
// rpc.ErrTransport (the reconnect layer guarantees it was never delivered) or
// a repl ownership refusal (rejected before any state changed).
// rpc.ErrDeadline is NEVER replayed — the call may have executed, and
// replaying a Put/Schedule/Delete could double-apply it — so a deadline
// surfaces to the caller on every kind of plane. Application errors surface.
//
// Two levels retry, and both ask retryable:
//
//   - the slot re-sends one call (or the refused calls of one batch frame)
//     to the range's new owner, when the range has a successor to promote
//     (R > 1); with R <= 1 there is nobody else to ask and the error
//     surfaces as the connection reported it;
//   - retryElastic re-runs a whole operation under a newer view, because
//     only the operation can re-partition a batch when a membership change
//     moved the range boundaries.
//
// What the next attempt runs against is decided by one resolution at a time
// per set (resolve): concurrent callers wait for it and retry under its
// result instead of each probing the plane.

const (
	// retryPasses bounds every retry loop of the client: the attempts of one
	// call or operation, and the probe rounds of one owner search (which must
	// outlast a promotion racing in from another client). retryBackoff
	// separates probe rounds and gives an uncommitted membership change
	// (cutover-to-commit is milliseconds) time to land.
	retryPasses  = 20
	retryBackoff = 250 * time.Millisecond
	// promoteTimeout bounds a Promote call, which copies the whole adopted
	// range into the successor's live store.
	promoteTimeout = 30 * time.Second
)

// retryable reports whether a call that failed with err may be sent again.
func retryable(err error) bool {
	if err == nil || errors.Is(err, rpc.ErrDeadline) {
		return false
	}
	return errors.Is(err, rpc.ErrTransport) || repl.IsNotOwner(err)
}

// slot is the rpc.Client of one key range of one membership epoch: every call
// forwards to the physical connection of the range's current owner. The
// set's connections are shared by all slots, so a slot counts no round trips
// and closes nothing itself.
type slot struct {
	set     *ShardSet
	rangeID int
	// epoch is the membership epoch the range belongs to, home its home
	// shard's address. Once the set has moved to another epoch the range no
	// longer exists: a straggling call goes to home, which serves what it
	// still owns and refuses the rest.
	epoch uint64
	home  string
}

// route returns the current view and the connection serving c under it.
func (s *ShardSet) route(c *slot) (*shardView, rpc.Client, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, addr := s.view, c.home
	if v.epoch == c.epoch {
		addr = v.addrs[v.owner[c.rangeID]]
	}
	conn, err := s.conn(addr)
	return v, conn, err
}

func (c *slot) Call(service, method string, args, reply any) error {
	var err error
	for pass := 0; pass < retryPasses; pass++ {
		v, conn, cerr := c.set.route(c)
		if cerr != nil {
			return cerr
		}
		err = conn.Call(service, method, args, reply)
		if !retryable(err) || !c.set.reroute(v, c) {
			return err
		}
	}
	return err
}

// CallBatch ships the batch to the range's owner. A transport-level failure
// replays the whole frame on the new owner (ErrTransport guarantees none of
// it was delivered); per-call refusals replay just the refused calls,
// preserving the others' replies. Refusals nobody could take stay in their
// call.Err for the operation level.
func (c *slot) CallBatch(calls []*rpc.Call) error {
	pending := calls
	var err error
	for pass := 0; pass < retryPasses; pass++ {
		v, conn, cerr := c.set.route(c)
		if cerr != nil {
			for _, call := range pending {
				call.Err = cerr
			}
			return cerr
		}
		if err = rpc.CallBatch(conn, pending); err != nil {
			if !retryable(err) || !c.set.reroute(v, c) {
				return err
			}
			continue
		}
		var refused []*rpc.Call
		for _, call := range pending {
			if retryable(call.Err) {
				refused = append(refused, call)
			}
		}
		if len(refused) == 0 || !c.set.reroute(v, c) {
			return nil
		}
		pending = refused
	}
	return err
}

func (c *slot) Close() error { return nil }

// resolution is one in-flight answer to "what should the next attempt run
// against?", asked after a call under view from failed retryably.
type resolution struct {
	done    chan struct{}
	from    *shardView
	rangeID int  // the range whose owner is searched; noRange for a membership read
	again   bool // the verdict, valid once done is closed
}

const noRange = -1

// resolve runs find as the set's one resolution in flight and reports
// whether the caller should try again. A caller that arrives while another
// resolution runs waits for it: if the view has moved past v by then it
// retries at once under the new view; if the resolution it waited for asked
// its own question it takes that verdict; otherwise it takes its turn.
func (s *ShardSet) resolve(v *shardView, rangeID int, find func() bool) bool {
	for {
		s.mu.Lock()
		if s.closed || s.view != v {
			moved := !s.closed
			s.mu.Unlock()
			return moved
		}
		if in := s.inflight; in != nil {
			s.mu.Unlock()
			<-in.done
			if in.from == v && in.rangeID == rangeID {
				return in.again
			}
			continue
		}
		in := &resolution{done: make(chan struct{}), from: v, rangeID: rangeID}
		s.inflight = in
		s.mu.Unlock()

		in.again = find()
		s.mu.Lock()
		s.inflight = nil
		s.mu.Unlock()
		close(in.done)
		return in.again
	}
}

// refresh is the membership resolution: true when the view moved past v.
func (s *ShardSet) refresh(v *shardView) bool {
	return s.resolve(v, noRange, func() bool { return s.readMembership(v.addrs) })
}

// reroute is the owner resolution of c's range after a call under v failed
// retryably: true when the call should be sent again. Without a successor
// (R <= 1), or once the set has left c's epoch, there is nobody to ask.
func (s *ShardSet) reroute(v *shardView, c *slot) bool {
	if v.replicas <= 1 || v.epoch != c.epoch {
		return false
	}
	return s.resolve(v, c.rangeID, func() bool { return s.findOwner(v, c.rangeID) })
}

// findOwner establishes rangeID's current owner and records it: probe the
// replica set for a shard already Serving; while a promotion is in flight
// anywhere, wait for it to resolve; if nobody serves and nothing is in
// flight, ask the first LIVE candidate to promote itself. False when the
// whole replica set is down.
func (s *ShardSet) findOwner(v *shardView, rangeID int) bool {
	cands := v.place.Successors(rangeID, v.replicas)
	for pass := 0; pass < retryPasses; pass++ {
		if pass > 0 {
			time.Sleep(retryBackoff)
		}
		promoting := false
		for _, c := range cands {
			var rep repl.OwnerReply
			if ask(v.addrs[c], repl.DefaultProbeTimeout, "Owner", repl.OwnerArgs{Range: rangeID}, &rep) != nil {
				continue // dead for this round
			}
			if rep.Serving {
				s.setOwner(v.epoch, rangeID, c)
				return true
			}
			promoting = promoting || rep.Promoting
		}
		if promoting {
			continue
		}
		for _, c := range cands {
			// A refusal means an earlier candidate is alive: the next round
			// finds it.
			var rep repl.PromoteReply
			if ask(v.addrs[c], promoteTimeout, "Promote", repl.PromoteArgs{Range: rangeID}, &rep) == nil && rep.Promoted {
				s.setOwner(v.epoch, rangeID, c)
				return true
			}
		}
	}
	return false
}

// setOwner swaps in a view that routes rangeID to owner, unless the set left
// the epoch the range belongs to meanwhile.
func (s *ShardSet) setOwner(epoch uint64, rangeID, owner int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur := s.view; cur.epoch == epoch && cur.owner[rangeID] != owner {
		next := *cur
		next.owner = append([]int(nil), cur.owner...)
		next.owner[rangeID] = owner
		s.install(&next)
	}
}

// ask puts one question to the ownership node (internal/repl) of the shard
// at addr, on a fresh connection bounded by timeout: a shared lazy
// connection would mask death behind reconnects.
func ask(addr string, timeout time.Duration, method string, args, reply any) error {
	c, err := rpc.Dial(addr, rpc.WithCallTimeout(timeout))
	if err != nil {
		return err
	}
	defer c.Close()
	return c.Call(repl.ServiceName, method, args, reply)
}

// retryElastic runs attempt against the current view and, while it fails
// retryably, reruns it under a newer one, retryPasses attempts in all. It is
// the client's one operation-level retry loop: single-datum calls come
// through homeCall, fan-outs re-partition inside attempt, so a batch caught
// mid-reshape converges on the committed placement. attempt must be safe to
// repeat wholesale (what it retries never executed, and all batch writes on
// this plane are put-overwrite idempotent).
//
// A refusal means ownership is moving: read the membership, and if the new
// one has not committed yet give it a beat and look again — then retry
// either way, since an aborted reshape resumes serving under the view we
// have. A transport error that reaches this level has outlived its
// connection's reconnect budget and every successor the slot could ask; only
// a view that moved meanwhile makes another attempt worth sending.
func (s *ShardSet) retryElastic(attempt func(v *shardView) error) error {
	var err error
	for pass := 0; pass < retryPasses; pass++ {
		v := s.currentView()
		if err = attempt(v); !retryable(err) {
			return err
		}
		switch {
		case s.currentView() != v: // moved meanwhile: retry under it at once
		case len(v.addrs) > 0 && repl.IsNotOwner(err):
			if !s.refresh(v) {
				time.Sleep(retryBackoff)
				s.refresh(v)
			}
		default:
			return err
		}
	}
	return err
}

// homeCall runs fn against uid's home slot, re-resolved on every
// retryElastic pass.
func (s *ShardSet) homeCall(uid data.UID, fn func(c *Comms) error) error {
	return s.retryElastic(func(v *shardView) error { return fn(v.home(uid)) })
}
