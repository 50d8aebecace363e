package repl

import (
	"sync/atomic"
	"testing"
	"time"

	"bitdew/internal/dht"
	"bitdew/internal/rpc"
)

// A content pull that can never succeed must not hold WaitReplicated (and
// with it every reshape's Stage and Cutover) hostage for the life of the
// process.

// TestPullCancelledByReplicatedDelete: the follower's pulls are paused (every
// FetchContent frame is lost) while a datum is put and then deleted at its
// primary. The replicated delete of the locator row must cancel the queued
// pull — the link stays dead throughout, so nothing else can retire it.
func TestPullCancelledByReplicatedDelete(t *testing.T) {
	var attempts atomic.Int64
	p := newFaultPlane(t, 2, 2, func(from int, addr string) []rpc.DialOption {
		if from != 1 {
			return nil
		}
		// Shard 1's shipper dialled (lazily, once) at boot; from here on every
		// fresh dial is a content pull, and loses its only frame.
		attempts.Add(1)
		return []rpc.DialOption{rpc.WithFaultPlan(rpc.NewFaultPlan().DropFrames(1))}
	})
	uid := keyOn(dht.NewPlacement(2), 0, "paused", 0)
	p.shards[0].content.put(uid, []byte("payload"))
	if err := p.shards[0].feed.Put("dc_locators", uid, []byte("locator")); err != nil {
		t.Fatal(err)
	}
	before := attempts.Load()
	waitFor(t, "a pull attempt on the paused follower", func() bool {
		return p.shards[1].node.pull.pending() > 0 && attempts.Load() > before
	})
	if err := p.shards[0].feed.Delete("dc_locators", uid); err != nil {
		t.Fatal(err)
	}
	if err := p.shards[0].node.WaitReplicated(5 * time.Second); err != nil {
		t.Fatalf("a deleted datum's pull still pending: %v", err)
	}
	if p.shards[1].content.has(uid) {
		t.Fatal("the paused follower pulled content through a dead link")
	}
}

// TestPullOfAbsentContentIsTerminal: a locator row is published for content
// nobody holds (no upload ever happened). Every holder is reachable and
// answers "not here", so the pull is over — retrying cannot change the answer.
func TestPullOfAbsentContentIsTerminal(t *testing.T) {
	p := newPlane(t, 2, 2)
	uid := keyOn(dht.NewPlacement(2), 0, "absent", 0)
	if err := p.shards[0].feed.Put("dc_locators", uid, []byte("locator")); err != nil {
		t.Fatal(err)
	}
	if err := p.shards[0].node.WaitReplicated(5 * time.Second); err != nil {
		t.Fatalf("a pull of content nobody holds never ends: %v", err)
	}
	if v, ok, _ := p.shards[1].node.rstore.Get(nsTable(0, "dc_locators"), uid); !ok || string(v) != "locator" {
		t.Fatalf("the locator row itself did not replicate: %q %v", v, ok)
	}
}
