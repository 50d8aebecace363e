package core

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"

	"bitdew/internal/dht"
	"bitdew/internal/repl"
	"bitdew/internal/rpc"
)

// The redial tests pin the range slot's address discipline at the wire
// level: when the owner's link faults (a dropped request frame, or
// the address dead outright), the retried call must land on the range's
// SUCCESSOR — never be burned re-sent at the stale address — and the
// refused/dead shard must see no further data traffic. rpc.FaultPlan
// scripts the link fault precisely, so this covers the narrow failure
// (frame lost, server alive) that killing a whole shard cannot produce.

type echoArgs struct{ N int }
type echoReply struct {
	N     int
	Shard int
}

// stubShard is one fake plane member: a real rpc server whose repl
// ownership answers are scripted by the test and whose echo service counts
// the data calls it handled.
type stubShard struct {
	shard    int
	addr     string
	srv      *rpc.Server
	serving  atomic.Bool
	accepts  atomic.Bool // whether Promote succeeds here
	echoed   atomic.Int64
	probed   atomic.Int64 // Owner calls answered
	promoted atomic.Int64 // Promote calls that succeeded
	accepted atomic.Int64 // TCP connections accepted
	// refuse, when set, is asked before each echo executes; a non-nil error
	// refuses the call (it is returned, and the call does not count).
	refuse atomic.Pointer[func(echoArgs) error]
	// ring, when set, is served as ring/Members.
	ring atomic.Pointer[func() dht.Membership]
}

// countingListener counts the connections a stub accepts.
type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.n.Add(1)
	}
	return c, err
}

// stubSet connects a replicated-plane client to stub shards. The stubs serve
// no ring/Members, so R comes from the WithReplicas hint; extra arms the
// shared data connections (built lazily, after this returns) with dial
// options — probe and Promote connections are NOT armed: they model the
// control path, and tests script the data path.
func stubSet(t *testing.T, extra []rpc.DialOption, shards ...*stubShard) *ShardSet {
	t.Helper()
	addrs := make([]string, len(shards))
	for i, s := range shards {
		addrs[i] = s.addr
	}
	set, err := ConnectSharded(addrs, WithReplicas(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { set.Close() })
	set.dial = func(addr string) rpc.Client {
		opts := append([]rpc.DialOption{rpc.WithCallTimeout(DefaultCallTimeout)}, extra...)
		return rpc.DialAutoLazyN(addr, failoverDialAttempts, opts...)
	}
	return set
}

// slotOf returns range r's slot, the rpc.Client under its Comms.
func slotOf(set *ShardSet, r int) rpc.Client { return set.Shard(r).client }

func newStubShard(t *testing.T, shard int) *stubShard {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &stubShard{shard: shard, addr: lis.Addr().String()}
	mux := rpc.NewMux()
	rpc.Register(mux, "ring", "Members", func(struct{}) (dht.Membership, error) {
		ring := s.ring.Load()
		if ring == nil {
			return dht.Membership{}, errors.New("stub serves no ring")
		}
		return (*ring)(), nil
	})
	rpc.Register(mux, repl.ServiceName, "Owner", func(a repl.OwnerArgs) (repl.OwnerReply, error) {
		s.probed.Add(1)
		return repl.OwnerReply{Shard: s.shard, Serving: s.serving.Load()}, nil
	})
	rpc.Register(mux, repl.ServiceName, "Promote", func(a repl.PromoteArgs) (repl.PromoteReply, error) {
		if !s.accepts.Load() {
			return repl.PromoteReply{}, nil
		}
		s.serving.Store(true)
		s.promoted.Add(1)
		return repl.PromoteReply{Promoted: true}, nil
	})
	rpc.Register(mux, "echo", "Echo", func(a echoArgs) (echoReply, error) {
		if refuse := s.refuse.Load(); refuse != nil {
			if err := (*refuse)(a); err != nil {
				return echoReply{}, err
			}
		}
		s.echoed.Add(1)
		return echoReply{N: a.N, Shard: s.shard}, nil
	})
	s.srv = rpc.NewServer(countingListener{lis, &s.accepted}, mux)
	t.Cleanup(func() { s.srv.Close() })
	return s
}

// TestFailoverRedialsSuccessorOnLinkFault drops the request frames to the
// owner while its server stays up (the owner is stepping down: alive, not
// serving, refusing promotion). The call must re-route to the successor —
// the stale owner handles no further echo calls.
func TestFailoverRedialsSuccessorOnLinkFault(t *testing.T) {
	a, b := newStubShard(t, 0), newStubShard(t, 1)
	a.serving.Store(true)
	b.accepts.Store(true)

	plan := rpc.NewFaultPlan()
	set := stubSet(t, []rpc.DialOption{rpc.WithFaultPlan(plan)}, a, b)
	fc := slotOf(set, 0)

	var rep echoReply
	if err := fc.Call("echo", "Echo", echoArgs{N: 1}, &rep); err != nil || rep.Shard != 0 {
		t.Fatalf("healthy call = %+v, %v; want shard 0", rep, err)
	}
	// The owner's link dies as it stops serving: the next call's frame and
	// its same-address retry (the connection's 2-attempt budget) are both lost.
	a.serving.Store(false)
	base := plan.Frames()
	plan.DropFrames(base+1, base+2)

	if err := fc.Call("echo", "Echo", echoArgs{N: 2}, &rep); err != nil {
		t.Fatalf("faulted call did not fail over: %v", err)
	}
	if rep.Shard != 1 {
		t.Fatalf("faulted call answered by shard %d, want successor 1", rep.Shard)
	}
	if got := set.OwnerOf(0); got != 1 {
		t.Fatalf("owner of range 0 = %d after failover, want 1", got)
	}
	if n := a.echoed.Load(); n != 1 {
		t.Fatalf("stale owner handled %d echo calls, want 1 (pre-fault only)", n)
	}
	// Steady state: traffic flows to the successor, none to the old owner.
	if err := fc.Call("echo", "Echo", echoArgs{N: 3}, &rep); err != nil || rep.Shard != 1 {
		t.Fatalf("post-failover call = %+v, %v; want shard 1", rep, err)
	}
	if n := a.echoed.Load(); n != 1 {
		t.Fatalf("stale owner still receiving traffic after failover (%d calls)", n)
	}
}

// TestFailoverRedialsSuccessorOnDeadAddress kills the owner's server
// outright before any call: the first call must establish ownership on the
// successor and succeed without the dead address ever answering.
func TestFailoverRedialsSuccessorOnDeadAddress(t *testing.T) {
	a, b := newStubShard(t, 0), newStubShard(t, 1)
	b.accepts.Store(true)
	a.srv.Close()

	fc := slotOf(stubSet(t, nil, a, b), 0)

	var rep echoReply
	if err := fc.Call("echo", "Echo", echoArgs{N: 1}, &rep); err != nil {
		t.Fatalf("call against dead owner did not fail over: %v", err)
	}
	if rep.Shard != 1 {
		t.Fatalf("answered by shard %d, want successor 1", rep.Shard)
	}
	if n := a.echoed.Load(); n != 0 {
		t.Fatalf("dead shard handled %d calls", n)
	}
}

// TestFailoverBatchRefusalsReplayOnSuccessor pins the batch path: when the
// owner answers a batch but refuses some calls with an ownership error,
// only the refused calls replay on the successor — answered calls keep
// their replies and are not re-executed anywhere.
func TestFailoverBatchRefusalsReplayOnSuccessor(t *testing.T) {
	a, b := newStubShard(t, 0), newStubShard(t, 1)

	// Shard A's echo refuses every second call with NotOwner, as a primary
	// would for keys of a range it just handed off. The handoff is visible
	// to probes: A no longer claims the range, the successor already serves
	// it — the owner search finds B without a promotion.
	refuseOdd := func(ar echoArgs) error {
		if ar.N%2 == 1 {
			return repl.ErrNotOwner
		}
		return nil
	}
	a.refuse.Store(&refuseOdd)
	b.serving.Store(true)

	fc := slotOf(stubSet(t, nil, a, b), 0)

	calls := make([]*rpc.Call, 4)
	replies := make([]echoReply, 4)
	for i := range calls {
		calls[i] = &rpc.Call{Service: "echo", Method: "Echo", Args: echoArgs{N: i}, Reply: &replies[i]}
	}
	if err := rpc.CallBatch(fc, calls); err != nil {
		t.Fatal(err)
	}
	for i, call := range calls {
		if call.Err != nil {
			t.Fatalf("call %d: %v", i, call.Err)
		}
		wantShard := 0
		if i%2 == 1 {
			wantShard = 1 // refused on A, replayed on B
		}
		if replies[i].N != i || replies[i].Shard != wantShard {
			t.Fatalf("call %d answered %+v, want N=%d shard %d", i, replies[i], i, wantShard)
		}
	}
	if n := b.echoed.Load(); n != 2 {
		t.Fatalf("successor handled %d calls, want exactly the 2 refused", n)
	}
}
