package runtime

import (
	"testing"
	"time"

	"bitdew/internal/attr"
	"bitdew/internal/core"
	"bitdew/internal/data"
	"bitdew/internal/db"
	"bitdew/internal/repl"
	"bitdew/internal/rpc"
)

// TestRecordsPerOperation pins what each client operation writes on its
// datum's home shard of a durable plane at R=2: WAL records and feed seqs,
// which move together, one per write. The home shard is the only one that
// writes. A delete is one write: its rows (the catalog's two and the
// scheduler entry) share one seq on the stream, and the follower acks it as
// one.
func TestRecordsPerOperation(t *testing.T) {
	plane, err := NewShardedContainer(ShardedConfig{
		Shards: 2, Replicas: 2, StateDir: t.TempDir(), DisableFTP: true, DisableSwarm: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer plane.Close()
	set, err := core.ConnectSharded(plane.Addrs())
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	node, err := core.NewNode(core.NodeConfig{Host: "client", Shards: set})
	if err != nil {
		t.Fatal(err)
	}
	node.SetClientOnly(true)

	type count struct{ recs, seqs [2]int }
	now := func() (c count) {
		for i := range c.recs {
			c.recs[i] = plane.Shard(i).ownStore.WALRecords()
			c.seqs[i] = int(plane.Shard(i).feed.Seq())
		}
		return c
	}
	home := -1 // the shard the first write lands on
	step := func(op string, want int, do func() error) {
		t.Helper()
		before := now()
		if err := do(); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		after := now()
		for i := range after.recs {
			recs, seqs := after.recs[i]-before.recs[i], after.seqs[i]-before.seqs[i]
			if home < 0 && recs > 0 {
				home = i
			}
			w := 0
			if i == home {
				w = want
			}
			if recs != w || seqs != w {
				t.Errorf("%s on shard %d (home %d): %d WAL records and %d feed seqs, want %d of each", op, i, home, recs, seqs, w)
			}
		}
	}

	var d *data.Data
	step("create", 1, func() (err error) {
		d, err = node.BitDew.CreateData("counted")
		return err
	})
	if home < 0 {
		t.Fatal("the create wrote no record")
	}
	if _, err := plane.Shard(home).DC.Get(d.UID); err != nil {
		t.Fatalf("shard %d wrote the create but does not serve the datum: %v", home, err)
	}
	step("put", 2, func() error { return node.BitDew.Put(d, []byte("counted payload")) })
	step("schedule", 1, func() error {
		return node.ActiveData.Schedule(*d, attr.Attribute{Name: "counted", Replica: 1})
	})

	owner := plane.Shard(home)
	if err := plane.WaitReplicated(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	seq, _, sub, err := owner.feed.SnapshotAndFollow(16)
	if err != nil {
		t.Fatal(err)
	}
	step("delete", 1, func() error { return node.BitDew.DeleteData(*d) })
	// Seq returns once the delete's rows are all in the subscription.
	owner.feed.Seq()
	var rows []db.Mutation
	for len(sub.C()) > 0 {
		rows = append(rows, <-sub.C())
	}
	owner.feed.Unsubscribe(sub)
	if len(rows) != 3 {
		t.Fatalf("the delete fed %d rows, want 3: %+v", len(rows), rows)
	}
	for _, m := range rows {
		if m.Seq != seq+1 || m.Op != 'D' || m.Key != string(d.UID) {
			t.Errorf("delete row %s/%s op %q at seq %d, want a delete of %s at seq %d", m.Table, m.Key, m.Op, m.Seq, d.UID, seq+1)
		}
	}
	if err := plane.WaitReplicated(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	c, err := rpc.DialAuto(owner.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := repl.NewClient(c).Status()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Targets) != 1 || !st.Targets[0].Synced || st.Targets[0].Acked != seq+1 {
		t.Fatalf("the follower's ack after the delete: %+v, want one target synced at seq %d", st.Targets, seq+1)
	}
}
