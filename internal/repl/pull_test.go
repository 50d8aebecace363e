package repl

import (
	"bytes"
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

// TestPullSurvivesABackendReadError: the primary's backend fails the read the
// first pull asks for. That is not "the primary holds no such content" — the
// follower must ask again, not settle for a locator without the bytes.
func TestPullSurvivesABackendReadError(t *testing.T) {
	p := newPlane(t, 2, 2)
	uid := keyOn(dht.NewPlacement(2), 0, "flaky", 0)
	p.shards[0].content.put(uid, []byte("payload"))
	p.shards[0].content.mu.Lock()
	p.shards[0].content.failReads = 1
	p.shards[0].content.mu.Unlock()
	if err := p.shards[0].feed.Put("dc_locators", uid, []byte("locator")); err != nil {
		t.Fatal(err)
	}
	if err := p.shards[0].node.WaitReplicated(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !p.shards[1].content.has(uid) {
		t.Fatal("a backend read error was taken for absent content: the pull was dropped")
	}
}

// TestPullBatchCutShort: three data announced together, each half of
// pullBytesMax, so the holder cuts its first reply after two. The third must
// arrive through the follow-up frame, byte for byte.
func TestPullBatchCutShort(t *testing.T) {
	p := newPlane(t, 2, 2)
	want := make(map[string][]byte)
	for i := 0; i < 3; i++ {
		uid := keyOn(dht.NewPlacement(2), 0, "big", i)
		want[uid] = bytes.Repeat([]byte{byte('a' + i)}, pullBytesMax/2)
		p.shards[0].content.put(uid, want[uid])
	}
	// One snapshot carries all three locators: the follower restarts empty.
	for uid := range want {
		if err := p.shards[0].feed.Put("dc_locators", uid, []byte("locator")); err != nil {
			t.Fatal(err)
		}
	}
	p.kill(1)
	p.restart(1)
	if err := p.shards[0].node.WaitReplicated(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for uid, c := range want {
		if got, _, _ := p.shards[1].content.get(uid); !bytes.Equal(got, c) {
			t.Fatalf("follower holds %d bytes of %s, want %d", len(got), uid, len(c))
		}
	}
}

// TestStatusRefreshesAStalePullReport: the Apply that ships a locator row is
// answered while the pull it triggers is still outstanding, and nothing is
// written afterwards. A reader polling Status alone (`bitdew repl wait`) must
// still see the target converge: reading a stale report asks the idle
// shipper for a fresh one.
func TestStatusRefreshesAStalePullReport(t *testing.T) {
	p := newPlane(t, 2, 2)
	uid := keyOn(dht.NewPlacement(2), 0, "stale", 0)
	p.shards[0].content.put(uid, []byte("payload"))
	if err := p.shards[0].feed.Put("dc_locators", uid, []byte("locator")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "Status to report the pull done", func() bool {
		st, _ := p.shards[0].node.handleStatus(StatusArgs{})
		tgt := st.Targets[0]
		return tgt.Synced && tgt.Acked >= st.Seq && tgt.PendingContent == 0
	})
	if !p.shards[1].content.has(uid) {
		t.Fatal("the report converged without the content")
	}
}
