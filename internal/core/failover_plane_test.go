package core_test

import (
	"bytes"
	"testing"
	"time"

	"bitdew/internal/core"
	"bitdew/internal/data"
	"bitdew/internal/dht"
	"bitdew/internal/repl"
	"bitdew/internal/rpc"
	"bitdew/internal/runtime"
)

// Plane-level failover coverage beyond the single-kill happy path: a
// double failure (the victim range loses BOTH its candidates mid-wave)
// must degrade to clean errors on that range while every other range keeps
// serving byte-exact, and a flapping shard (restarted DURING the
// promotion it triggered) must rejoin as a replica without split-brain.

const planeWait = 30 * time.Second

// replicatedHarness boots a Shards-shard R=2 plane plus a failover-aware
// client node, and distributes a wave through it.
func replicatedHarness(t *testing.T, shards, waveSize int) (*runtime.ShardedContainer, *core.ShardSet, *core.Node, []*data.Data, [][]byte) {
	t.Helper()
	plane, err := runtime.NewShardedContainer(runtime.ShardedConfig{
		Shards:       shards,
		Replicas:     2,
		DisableFTP:   true,
		DisableSwarm: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { plane.Close() })
	set, err := core.ConnectSharded(plane.Addrs())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { set.Close() })
	node, err := core.NewNode(core.NodeConfig{Host: "failover-client", Shards: set, Concurrency: 16})
	if err != nil {
		t.Fatal(err)
	}
	node.SetClientOnly(true)
	t.Cleanup(node.Stop)
	wave, contents := putWave(t, node, waveSize)
	if err := plane.WaitReplicated(planeWait); err != nil {
		t.Fatal(err)
	}
	return plane, set, node, wave, contents
}

// fetchUntil reads d through the node until it succeeds or the deadline
// passes, returning the bytes. Retries ride the failover path: the first
// post-kill read triggers detection and promotion.
func fetchUntil(t *testing.T, node *core.Node, d *data.Data, deadline time.Duration) []byte {
	t.Helper()
	limit := time.Now().Add(deadline)
	for {
		raw, err := node.BitDew.GetBytes(*d)
		if err == nil {
			return raw
		}
		if time.Now().After(limit) {
			t.Fatalf("%s unreachable after %v: %v", d.Name, deadline, err)
		}
	}
}

// servingCount probes the live shards over the repl wire protocol and
// counts how many claim to be serving rangeID.
func servingCount(t *testing.T, plane *runtime.ShardedContainer, rangeID int) int {
	t.Helper()
	count := 0
	for i, addr := range plane.Addrs() {
		if plane.Shard(i) == nil {
			continue
		}
		c, err := rpc.Dial(addr, rpc.WithCallTimeout(2*time.Second))
		if err != nil {
			continue
		}
		var rep repl.OwnerReply
		err = c.Call(repl.ServiceName, "Owner", repl.OwnerArgs{Range: rangeID}, &rep)
		c.Close()
		if err == nil && rep.Serving {
			count++
		}
	}
	return count
}

// TestDoubleFailureDegradedButCorrect kills the victim range's owner
// mid-wave, lets the first successor promote, then kills the successor
// too: with R=2 the range's whole candidate set is gone, so reads of its
// data must fail with a clean error — never hang, never return wrong
// bytes — while every range with a surviving candidate keeps serving the
// wave byte-exact through the same client.
func TestDoubleFailureDegradedButCorrect(t *testing.T) {
	plane, set, node, wave, contents := replicatedHarness(t, 3, 18)
	place := dht.NewPlacement(3)

	victimRange := set.ShardOf(wave[0].UID)
	primary := set.OwnerOf(victimRange)
	successor := place.Successors(victimRange, 2)[1]

	// First failure mid-wave: read part of the wave, kill the owner, keep
	// reading — the witness read drives detection and promotion.
	for i, d := range wave[:len(wave)/3] {
		if got := fetchUntil(t, node, d, planeWait); !bytes.Equal(got, contents[i]) {
			t.Fatalf("%s corrupted before any failure", d.Name)
		}
	}
	if err := plane.KillShard(primary); err != nil {
		t.Fatal(err)
	}
	if got := fetchUntil(t, node, wave[0], planeWait); !bytes.Equal(got, contents[0]) {
		t.Fatalf("%s corrupted after first failover", wave[0].Name)
	}
	if owner := set.OwnerOf(victimRange); owner != successor {
		t.Fatalf("range %d failed over to shard %d, want first successor %d", victimRange, owner, successor)
	}

	// Second failure: the promoted successor dies too. The victim range
	// has no candidates left; everything else must still serve.
	if err := plane.KillShard(successor); err != nil {
		t.Fatal(err)
	}
	deadRangeChecked := false
	for i, d := range wave {
		home := set.ShardOf(d.UID)
		if home == victimRange {
			if deadRangeChecked {
				continue // one clean-error probe is enough; each costs a full resolve
			}
			deadRangeChecked = true
			c := set.Shard(home)
			if _, err := c.DC.Get(d.UID); err == nil {
				t.Fatalf("%s homed on the dead range answered after both candidates died", d.Name)
			}
			continue
		}
		if got := fetchUntil(t, node, d, planeWait); !bytes.Equal(got, contents[i]) {
			t.Fatalf("%s corrupted after double failure", d.Name)
		}
	}
	if !deadRangeChecked {
		t.Fatal("no wave datum homed on the victim range — double-failure audit proved nothing")
	}
}

// TestFlappingRestartDuringPromotion kills a range's owner and restarts it
// WHILE the promotion it triggered is racing in from the client: the
// restarted ex-owner must rejoin as a replica (or keep the range if it won
// the race) — but never BOTH: exactly one shard serves the range, the
// plane reconverges, and a follow-up kill of whichever shard owns the
// range fails over to the other candidate with byte-exact data, proving
// the flap caused no divergence.
func TestFlappingRestartDuringPromotion(t *testing.T) {
	plane, set, node, wave, contents := replicatedHarness(t, 3, 12)

	victimRange := set.ShardOf(wave[0].UID)
	primary := set.OwnerOf(victimRange)
	if err := plane.KillShard(primary); err != nil {
		t.Fatal(err)
	}
	// Restart the dead owner concurrently with the read that drives the
	// successor's promotion — the flap lands mid-promotion.
	restarted := make(chan error, 1)
	go func() {
		time.Sleep(50 * time.Millisecond)
		restarted <- plane.RestartShard(primary)
	}()
	if got := fetchUntil(t, node, wave[0], planeWait); !bytes.Equal(got, contents[0]) {
		t.Fatalf("%s corrupted across the flap", wave[0].Name)
	}
	if err := <-restarted; err != nil {
		t.Fatal(err)
	}

	// No split-brain: however the race resolved, exactly one shard serves
	// the range once the dust settles.
	deadline := time.Now().Add(planeWait)
	for {
		if n := servingCount(t, plane, victimRange); n == 1 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("%d shards serve range %d after the flap, want exactly 1", n, victimRange)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err := plane.WaitReplicated(planeWait); err != nil {
		t.Fatalf("plane did not reconverge after the flap: %v", err)
	}

	// The rejoined replica caught up: kill the current owner and the range
	// must fail over to the other candidate with the same bytes.
	owner := set.OwnerOf(victimRange)
	if err := plane.KillShard(owner); err != nil {
		t.Fatal(err)
	}
	if got := fetchUntil(t, node, wave[0], planeWait); !bytes.Equal(got, contents[0]) {
		t.Fatalf("%s corrupted after post-flap failover", wave[0].Name)
	}
	if newOwner := set.OwnerOf(victimRange); newOwner == owner {
		t.Fatalf("range %d still routed to killed shard %d", victimRange, owner)
	}
}

// TestFailoverWithoutReplicasHint connects with no WithReplicas: the client
// learns R from the membership table it reads at first contact, so killing
// a range's owner still fails over to the promoted successor.
func TestFailoverWithoutReplicasHint(t *testing.T) {
	plane, _, writer, wave, contents := replicatedHarness(t, 3, 6)
	set, err := core.ConnectSharded(plane.Addrs())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { set.Close() })
	node, err := core.NewNode(core.NodeConfig{Host: "unhinted-client", Shards: set})
	if err != nil {
		t.Fatal(err)
	}
	node.SetClientOnly(true)
	t.Cleanup(node.Stop)
	writer.Stop()

	victim := set.OwnerOf(set.ShardOf(wave[0].UID))
	if err := plane.KillShard(victim); err != nil {
		t.Fatal(err)
	}
	if got := fetchUntil(t, node, wave[0], 10*time.Second); !bytes.Equal(got, contents[0]) {
		t.Fatalf("%s corrupted after failover", wave[0].Name)
	}
	if owner := set.OwnerOf(set.ShardOf(wave[0].UID)); owner == victim {
		t.Fatalf("range still routed to killed shard %d", victim)
	}
}
