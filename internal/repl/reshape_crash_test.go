package repl

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"bitdew/internal/dht"
	"bitdew/internal/rpc"
)

// The move stream's crash-point matrix: a 2→3 grow driven by hand — Stage,
// writes on moving keys, Cutover, Commit — with source 0's link to the joiner
// scripted by rpc.FaultPlan exactly as crashpoint_test.go scripts the
// primary→replica link. Whatever the link does, the committed joiner's live
// rows are the sources' pre-cutover rows of the moving arcs, byte for byte,
// and nothing else.

// movingKey derives a key that homes on `from` of 2 shards and on the joiner
// (shard 2) of 3.
func movingKey(t *testing.T, from int, salt string) string {
	t.Helper()
	old, grown := dht.NewPlacement(2), dht.NewPlacement(3)
	for i := 0; i < 10000; i++ {
		if k := fmt.Sprintf("%s-%d", salt, i); old.ShardOf(k) == from && grown.ShardOf(k) == 2 {
			return k
		}
	}
	t.Fatalf("no key moving %d→2", from)
	return ""
}

// liveRows returns every row of the gated tables in the shard's live store
// whose key passes want, as "table/key" → value.
func liveRows(t *testing.T, s *moveShard, want func(key string) bool) map[string][]byte {
	t.Helper()
	rows := make(map[string][]byte)
	for _, tbl := range []string{tblData, tblLocators} {
		err := s.feed.Scan(tbl, func(k string, v []byte) bool {
			if want(k) {
				rows[tbl+"/"+k] = append([]byte(nil), v...)
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return rows
}

// runFaultedMove runs the grow. arm scripts the plan before the stage;
// midStage runs between Stage and the writes that precede Cutover, and may
// replace the joiner (a restart).
func runFaultedMove(t *testing.T, arm func(plan *rpc.FaultPlan), midStage func(plan *rpc.FaultPlan, joiner *moveShard) *moveShard) {
	plan := rpc.NewFaultPlan()
	p := bootPlaneWith(t, 2, func(from int, addr string) []rpc.DialOption {
		if from == 0 {
			return []rpc.DialOption{rpc.WithFaultPlan(plan)}
		}
		return nil
	})
	joiner := bootShard(t, 2, 3)
	grown := addrs(p.with(joiner))
	kOver := p.movingFrom(t, 0, 3)[0]
	kGone := p.movingFrom(t, 0, 3)[1]
	kNew := movingKey(t, 0, "late")

	arm(plan)
	for i, s := range p.shards {
		if err := s.client.Stage(grown); err != nil {
			t.Fatalf("stage on shard %d: %v", i, err)
		}
	}
	joiner = midStage(plan, joiner)

	// Writes landing on moving keys between Stage and Cutover: the source
	// still owns them, the stream must carry them.
	src := p.shards[0]
	if err := src.store.Put(tblData, kOver, []byte("overwritten after stage")); err != nil {
		t.Fatal(err)
	}
	if err := src.store.Put(tblData, kNew, []byte("written after stage")); err != nil {
		t.Fatal(err)
	}
	for _, tbl := range []string{tblData, tblLocators} {
		if err := src.store.Delete(tbl, kGone); err != nil {
			t.Fatal(err)
		}
	}
	toJoiner := func(k string) bool { return dht.NewPlacement(3).ShardOf(k) == 2 }
	want := liveRows(t, p.shards[0], toJoiner)
	for k, v := range liveRows(t, p.shards[1], toJoiner) {
		want[k] = v
	}

	for i, s := range p.shards {
		if err := s.client.Cutover(); err != nil {
			t.Fatalf("cutover on shard %d: %v", i, err)
		}
	}
	for _, s := range []*moveShard{joiner, p.shards[0], p.shards[1]} {
		if err := s.client.Commit(2, grown); err != nil {
			t.Fatal(err)
		}
	}

	got := liveRows(t, joiner, func(string) bool { return true })
	if len(got) != len(want) {
		t.Fatalf("joiner holds %d live rows, the moving arcs held %d at cutover", len(got), len(want))
	}
	for k, v := range want {
		if !bytes.Equal(got[k], v) {
			t.Fatalf("joiner's %s = %q, source had %q at cutover", k, got[k], v)
		}
	}
	if string(got[tblData+"/"+kNew]) != "written after stage" || string(got[tblData+"/"+kOver]) != "overwritten after stage" {
		t.Fatalf("writes between stage and cutover missing on the joiner: %q, %q", got[tblData+"/"+kNew], got[tblData+"/"+kOver])
	}
	if _, ok := got[tblData+"/"+kGone]; ok {
		t.Fatalf("%s, deleted between stage and cutover, is live on the joiner", kGone)
	}
	// Content followed the locator rows, pulled from the sources.
	for k := range want {
		tbl, key, _ := strings.Cut(k, "/")
		if c, _ := joiner.content.Get(key); tbl == tblLocators && string(c) != "bytes of "+key {
			t.Fatalf("joiner holds content %q for %s", c, key)
		}
	}
}

func noArm(*rpc.FaultPlan)                                 {}
func noMidStage(_ *rpc.FaultPlan, j *moveShard) *moveShard { return j }

// TestMoveFrameDropped loses the first frames of the move stream — the Sync
// carrying the snapshot — so the stage only completes through the shipper's
// redial and resend.
func TestMoveFrameDropped(t *testing.T) {
	runFaultedMove(t, func(plan *rpc.FaultPlan) { dropFrom(plan, 3) }, noMidStage)
}

// TestMoveFrameDuplicated delivers every frame of the stage and of the tail
// twice: the snapshot replaces the namespace twice (idempotent) and the span
// dedup drops the second copy of each tail batch — a replayed stale batch
// would resurrect the key deleted after the stage.
func TestMoveFrameDuplicated(t *testing.T) {
	runFaultedMove(t, func(plan *rpc.FaultPlan) {
		for f := uint64(1); f <= 64; f++ {
			plan.Set(f, rpc.Fault{Action: rpc.FaultDup})
		}
	}, noMidStage)
}

// TestMoveRetryOnce drops exactly the next frame after the stage — the Apply
// carrying the first write on a moving key — so the batch lands through one
// retry, exactly once and in order.
func TestMoveRetryOnce(t *testing.T) {
	runFaultedMove(t, noArm, func(plan *rpc.FaultPlan, j *moveShard) *moveShard {
		plan.DropFrames(plan.Frames() + 1)
		return j
	})
}

// TestMoveTargetRestartedMidStage restarts the joiner after the stage: its
// namespace and its hold on the moving arcs are gone, the next frame is
// answered NeedSync, and the resync rebuilds both before the cutover ends.
func TestMoveTargetRestartedMidStage(t *testing.T) {
	runFaultedMove(t, noArm, func(_ *rpc.FaultPlan, j *moveShard) *moveShard {
		j.stop()
		return bootShardOn(t, 2, 3, listen(t, j.addr), nil)
	})
}

// TestCutoverDemandsFreshAcks: the joiner restarts after the stage and NO
// write follows, so the source's last recorded ack already covers the feed.
// The cutover must not trust it — the ack came from the joiner's previous
// life — and the commit must still find every moving row on the joiner.
func TestCutoverDemandsFreshAcks(t *testing.T) {
	p := bootPlane(t, 2)
	joiner := bootShard(t, 2, 3)
	grown := addrs(p.with(joiner))
	for i, s := range p.shards {
		if err := s.client.Stage(grown); err != nil {
			t.Fatalf("stage on shard %d: %v", i, err)
		}
	}
	joiner.stop()
	joiner = bootShardOn(t, 2, 3, listen(t, joiner.addr), nil)
	for i, s := range p.shards {
		if err := s.client.Cutover(); err != nil {
			t.Fatalf("cutover on shard %d: %v", i, err)
		}
	}
	all := p.with(joiner)
	for _, s := range []*moveShard{joiner, p.shards[0], p.shards[1]} {
		if err := s.client.Commit(2, grown); err != nil {
			t.Fatal(err)
		}
	}
	assertServedUnder(t, p.keys, all)
}

// TestCommitRefusedWhenTargetLostTheStream: the joiner restarts between the
// sources' cutovers and its own commit. Its namespace is gone, so its commit
// adopts nothing — and cannot know it should have. The sources must notice
// before they garbage-collect the originals: their commits refuse, the moved
// rows stay in their stores behind the departure gate, and an abort puts
// them back in service.
func TestCommitRefusedWhenTargetLostTheStream(t *testing.T) {
	p := bootPlane(t, 2)
	joiner := bootShard(t, 2, 3)
	grown := addrs(p.with(joiner))
	for i, s := range p.shards {
		if err := s.client.Stage(grown); err != nil {
			t.Fatalf("stage on shard %d: %v", i, err)
		}
	}
	for i, s := range p.shards {
		if err := s.client.Cutover(); err != nil {
			t.Fatalf("cutover on shard %d: %v", i, err)
		}
	}
	joiner.stop()
	joiner = bootShardOn(t, 2, 3, listen(t, joiner.addr), nil)
	if err := joiner.client.Commit(2, grown); err != nil {
		t.Fatal(err)
	}
	for i, s := range p.shards {
		if err := s.client.Commit(2, grown); err == nil || !strings.Contains(err.Error(), "no longer holds the moved rows") {
			t.Fatalf("source %d committed over a joiner that lost its rows: %v", i, err)
		}
		for _, k := range p.movingFrom(t, i, 3) {
			if v, ok, err := s.feed.Get(tblData, k); err != nil || !ok || string(v) != "row "+k {
				t.Fatalf("source %d dropped %s, which lives nowhere else: %q %v %v", i, k, v, ok, err)
			}
			if err := s.node.GateUID(k); !IsNotOwner(err) {
				t.Fatalf("source %d serves %s while its commit is refused: %v", i, k, err)
			}
		}
		s.node.Abort()
	}
	p.assertUnchanged(t)
}
