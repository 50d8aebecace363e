package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bitdew/internal/dht"
	"bitdew/internal/repl"
	"bitdew/internal/rpc"
)

// echoThrough sends one echo call through range r's slot.
func echoThrough(set *ShardSet, r, n int) (echoReply, error) {
	var rep echoReply
	err := slotOf(set, r).Call("echo", "Echo", echoArgs{N: n}, &rep)
	return rep, err
}

// TestShardSetOneOwnerSearchInFlight: 16 calls hit a dead owner at once. One
// of them searches for the new owner (a bounded number of probes, one
// Promote); the others wait for that search and retry under its result.
func TestShardSetOneOwnerSearchInFlight(t *testing.T) {
	a, b := newStubShard(t, 0), newStubShard(t, 1)
	b.accepts.Store(true)
	a.srv.Close()
	set := stubSet(t, nil, a, b)

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if rep, err := echoThrough(set, 0, i); err != nil || rep.Shard != 1 {
				t.Errorf("call %d = %+v, %v; want the successor's answer", i, rep, err)
			}
		}(i)
	}
	wg.Wait()
	if n := b.promoted.Load(); n != 1 {
		t.Errorf("%d promotions succeeded for one dead owner, want 1", n)
	}
	if n := b.probed.Load(); n > 2 {
		t.Errorf("successor answered %d ownership probes for one dead owner, want at most one search's worth (2)", n)
	}
}

// TestShardSetStaleViewRetriesUnderOneRefresh: 16 operations are refused
// because the client's view is stale while the new membership has already
// committed. One of them reads the membership; the others wait for that
// read and retry under its result at once — nobody sleeps a backoff when
// the view that answers them is already in.
func TestShardSetStaleViewRetriesUnderOneRefresh(t *testing.T) {
	a, b := newStubShard(t, 0), newStubShard(t, 1)
	var epoch atomic.Uint64
	var reads atomic.Int64
	epoch.Store(1)
	ring := func() dht.Membership {
		reads.Add(1)
		return dht.Membership{Addrs: []string{a.addr, b.addr}, Epoch: epoch.Load()}
	}
	a.ring.Store(&ring)
	b.ring.Store(&ring)
	set, err := ConnectSharded([]string{a.addr, b.addr})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	if set.Epoch() != 1 {
		t.Fatalf("connected at epoch %d, want the table's 1", set.Epoch())
	}

	// The plane commits epoch 2; both shards refuse callers still on epoch 1.
	epoch.Store(2)
	stale := func(echoArgs) error {
		if set.Epoch() < 2 {
			return repl.ErrNotOwner
		}
		return nil
	}
	a.refuse.Store(&stale)
	b.refuse.Store(&stale)
	reads.Store(0)

	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := set.retryElastic(func(v *shardView) error {
				return v.slots[i%2].client.Call("echo", "Echo", echoArgs{N: i}, nil)
			})
			if err != nil {
				t.Errorf("operation %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if d := time.Since(start); d >= retryBackoff {
		t.Errorf("operations took %v: some caller slept a backoff (%v) although the new view was in", d, retryBackoff)
	}
	if n := reads.Load(); n != 1 {
		t.Errorf("%d membership reads for one stale view, want 1", n)
	}
}

// TestShardSetNoConnectionAfterClose: a call racing Close must fail, not
// dial a connection nobody will close — including to a shard the set never
// talked to before Close.
func TestShardSetNoConnectionAfterClose(t *testing.T) {
	a, b := newStubShard(t, 0), newStubShard(t, 1)
	a.serving.Store(true)
	b.serving.Store(true)
	set := stubSet(t, nil, a, b)
	if _, err := echoThrough(set, 0, 1); err != nil {
		t.Fatal(err)
	}
	set.Close()
	before := a.accepted.Load() + b.accepted.Load()

	for r := 0; r < 2; r++ {
		if rep, err := echoThrough(set, r, 2); err == nil {
			t.Errorf("call through range %d after Close answered %+v", r, rep)
		}
	}
	// A marker connection per stub: once each is accepted, any connection
	// the closed set dialled before it has been counted too.
	for _, s := range []*stubShard{a, b} {
		c, err := rpc.Dial(s.addr, rpc.WithCallTimeout(time.Second))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for a.accepted.Load()+b.accepted.Load() < before+2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := a.accepted.Load() + b.accepted.Load(); got != before+2 {
		t.Errorf("stubs accepted %d connections after Close, want only the 2 markers", got-before)
	}
}

// TestShardSetRoundTripsAllocatesNothing: the benchmark reads RoundTrips on
// every connection around every counted operation, so an allocation here
// lands in each gated alloc_kb_per_* count.
func TestShardSetRoundTripsAllocatesNothing(t *testing.T) {
	a, b := newStubShard(t, 0), newStubShard(t, 1)
	set := stubSet(t, nil, a, b)
	for r := 0; r < 2; r++ {
		if _, err := echoThrough(set, r, r); err != nil {
			t.Fatal(err)
		}
	}
	if set.RoundTrips() != 2 {
		t.Fatalf("RoundTrips = %d after 2 calls", set.RoundTrips())
	}
	if n := testing.AllocsPerRun(100, func() { set.RoundTrips() }); n != 0 {
		t.Errorf("RoundTrips allocates %.0f objects per call, want 0", n)
	}
}

// TestRetryContract pins the client's retry contract (top of slot.go) as one
// table: on every kind of plane, what each kind of error does to a single
// call and to a batch of two — where it is retried, or that it surfaces —
// counted at the handlers. A deadline executes once on every row.
//
// A batch's scripted error hits call 0; call 1 is innocent. Frame-level
// faults (a dropped frame, a frame that outlives its deadline) hit both.
func TestRetryContract(t *testing.T) {
	type fault int
	const (
		transport fault = iota
		notOwner
		deadline
		application
	)
	faultNames := []string{"ErrTransport", "not-owner", "ErrDeadline", "application error"}
	type plane int
	const (
		static     plane = iota // NewShardSet over local Comms
		tcp                     // ConnectSharded, R <= 1
		replicated              // ConnectSharded, R = 2
	)
	planeNames := []string{"static local", "unreplicated TCP", "R=2"}

	// exec[shard][n] counts how often call n executed on shard (A = 0 is the
	// range's home, B = 1 its successor). wantErr is what must surface (nil:
	// the operation succeeds).
	type outcome struct {
		wantErr error
		exec    [2][2]int64
	}
	errApp := errors.New("application error")
	rows := []struct {
		plane  plane
		fault  fault
		single outcome
		batch  outcome
	}{
		// A static set has no plane to ask and no successor: everything
		// surfaces, nothing repeats.
		{static, transport, outcome{rpc.ErrTransport, [2][2]int64{{0, 0}, {0, 0}}}, outcome{rpc.ErrTransport, [2][2]int64{{0, 1}, {0, 0}}}},
		{static, notOwner, outcome{repl.ErrNotOwner, [2][2]int64{{0, 0}, {0, 0}}}, outcome{repl.ErrNotOwner, [2][2]int64{{0, 1}, {0, 0}}}},
		{static, deadline, outcome{rpc.ErrDeadline, [2][2]int64{{1, 0}, {0, 0}}}, outcome{rpc.ErrDeadline, [2][2]int64{{1, 1}, {0, 0}}}},
		{static, application, outcome{errApp, [2][2]int64{{1, 0}, {0, 0}}}, outcome{errApp, [2][2]int64{{1, 1}, {0, 0}}}},
		// R <= 1: a lost frame is re-sent by the connection to the same
		// address; a refusal waits for the membership and re-runs the whole
		// operation (the innocent call of the batch executes twice — batch
		// writes are put-overwrite idempotent); the rest surfaces.
		{tcp, transport, outcome{nil, [2][2]int64{{1, 0}, {0, 0}}}, outcome{nil, [2][2]int64{{1, 1}, {0, 0}}}},
		{tcp, notOwner, outcome{nil, [2][2]int64{{1, 0}, {0, 0}}}, outcome{nil, [2][2]int64{{1, 2}, {0, 0}}}},
		{tcp, deadline, outcome{rpc.ErrDeadline, [2][2]int64{{1, 0}, {0, 0}}}, outcome{rpc.ErrDeadline, [2][2]int64{{1, 1}, {0, 0}}}},
		{tcp, application, outcome{errApp, [2][2]int64{{1, 0}, {0, 0}}}, outcome{errApp, [2][2]int64{{1, 1}, {0, 0}}}},
		// R = 2: what never executed goes to the successor — the whole frame
		// after a transport failure, only the refused call after a refusal;
		// the rest surfaces.
		{replicated, transport, outcome{nil, [2][2]int64{{0, 0}, {1, 0}}}, outcome{nil, [2][2]int64{{0, 0}, {1, 1}}}},
		{replicated, notOwner, outcome{nil, [2][2]int64{{0, 0}, {1, 0}}}, outcome{nil, [2][2]int64{{0, 1}, {1, 0}}}},
		{replicated, deadline, outcome{rpc.ErrDeadline, [2][2]int64{{1, 0}, {0, 0}}}, outcome{rpc.ErrDeadline, [2][2]int64{{1, 1}, {0, 0}}}},
		{replicated, application, outcome{errApp, [2][2]int64{{1, 0}, {0, 0}}}, outcome{errApp, [2][2]int64{{1, 1}, {0, 0}}}},
	}

	const callTimeout = 100 * time.Millisecond
	for _, row := range rows {
		for _, calls := range []int{1, 2} {
			want, shape := row.single, "single call"
			if calls == 2 {
				want, shape = row.batch, "batch"
			}
			t.Run(fmt.Sprintf("%s/%s/%s", planeNames[row.plane], faultNames[row.fault], shape), func(t *testing.T) {
				var exec [2][2]atomic.Int64
				var armed atomic.Bool
				armed.Store(true)
				// handler is shard's echo: the scripted fault hits call 0 on
				// A once; everything else executes and is counted.
				handler := func(shard int) func(echoArgs) (echoReply, error) {
					return func(a echoArgs) (echoReply, error) {
						if shard == 0 && a.N == 0 && armed.CompareAndSwap(true, false) {
							switch row.fault {
							case transport: // static only: over TCP the frame itself is dropped
								return echoReply{}, fmt.Errorf("%w: scripted", rpc.ErrTransport)
							case notOwner:
								return echoReply{}, repl.ErrNotOwner
							case deadline:
								exec[shard][a.N].Add(1)
								if row.plane == static {
									return echoReply{}, fmt.Errorf("%w: scripted", rpc.ErrDeadline)
								}
								time.Sleep(3 * callTimeout)
								return echoReply{N: a.N, Shard: shard}, nil
							case application:
								exec[shard][a.N].Add(1)
								return echoReply{}, errApp
							}
						}
						exec[shard][a.N].Add(1)
						return echoReply{N: a.N, Shard: shard}, nil
					}
				}

				var set *ShardSet
				if row.plane == static {
					var comms [2]*Comms
					for shard := range comms {
						mux := rpc.NewMux()
						rpc.Register(mux, "echo", "Echo", handler(shard))
						comms[shard] = ConnectLocal(mux)
					}
					set = NewShardSet(comms[0], comms[1])
				} else {
					a, b := newStubShard(t, 0), newStubShard(t, 1)
					for shard, s := range []*stubShard{a, b} {
						h := handler(shard)
						refuse := func(ar echoArgs) error { _, err := h(ar); return err }
						s.refuse.Store(&refuse)
					}
					plan := rpc.NewFaultPlan()
					opts := []rpc.DialOption{rpc.WithCallTimeout(callTimeout), rpc.WithFaultPlan(plan)}
					replicas, attempts := 1, 8 // rpc's default reconnect budget
					if row.plane == replicated {
						// A is stepping down as the fault hits: alive, no
						// longer serving, and B takes the promotion.
						b.accepts.Store(true)
						replicas, attempts = 2, failoverDialAttempts
					}
					var err error
					if set, err = ConnectSharded([]string{a.addr, b.addr}, WithReplicas(replicas)); err != nil {
						t.Fatal(err)
					}
					set.dial = func(addr string) rpc.Client { return rpc.DialAutoLazyN(addr, attempts, opts...) }
					if row.fault == transport {
						armed.Store(false)
						plan.DropFrames(1) // R <= 1: the connection's own retry delivers frame 2
						if row.plane == replicated {
							plan.DropFrames(2) // both attempts of the short budget are lost
						}
					}
				}
				defer set.Close()

				replies := make([]echoReply, calls)
				err := set.retryElastic(func(v *shardView) error {
					c := v.slots[0].client
					if calls == 1 {
						return c.Call("echo", "Echo", echoArgs{N: 0}, &replies[0])
					}
					batch := make([]*rpc.Call, calls)
					for n := range batch {
						batch[n] = rpc.NewCall("echo", "Echo", echoArgs{N: n}, &replies[n])
					}
					if err := rpc.CallBatch(c, batch); err != nil {
						return err
					}
					return rpc.FirstError(batch)
				})
				switch {
				case want.wantErr == nil:
					if err != nil {
						t.Fatalf("operation failed: %v", err)
					}
				case err == nil:
					t.Fatalf("operation succeeded, want %v to surface", want.wantErr)
				// A handler's error crosses a wire or a batch frame as its text.
				case !errors.Is(err, want.wantErr) && !strings.Contains(err.Error(), want.wantErr.Error()):
					t.Fatalf("operation returned %v, want %v to surface", err, want.wantErr)
				}
				if row.fault == deadline && row.plane != static {
					time.Sleep(4 * callTimeout) // let the abandoned frame finish executing
				}
				for shard := range exec {
					for n := 0; n < calls; n++ {
						if got := exec[shard][n].Load(); got != want.exec[shard][n] {
							t.Errorf("call %d executed %d times on shard %d, want %d", n, got, shard, want.exec[shard][n])
						}
					}
				}
			})
		}
	}
}
