package core_test

import (
	"fmt"
	"testing"

	"bitdew/internal/attr"
	"bitdew/internal/core"
	"bitdew/internal/data"
)

// frameRig is a node over loopback TCP to a 2-shard plane whose request
// frames are counted. Its set is static (one ready-made connection per
// shard), so the only frames on it are the operations' own: a set that
// follows the plane's membership also polls it, on a timer.
type frameRig struct {
	t    *testing.T
	set  *core.ShardSet
	node *core.Node
}

func newFrameRig(t *testing.T, h *shardedHarness, host string) *frameRig {
	t.Helper()
	var conns []*core.Comms
	for _, addr := range h.plane.Addrs() {
		c, err := core.Connect(addr)
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
	}
	set := core.NewShardSet(conns...)
	t.Cleanup(func() { set.Close() })
	n, err := core.NewNode(core.NodeConfig{Host: host, Shards: set})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	return &frameRig{t: t, set: set, node: n}
}

// frames runs op and returns the request frames it put on the wire.
func (r *frameRig) frames(op func() error) uint64 {
	r.t.Helper()
	before := r.set.RoundTrips()
	if err := op(); err != nil {
		r.t.Fatal(err)
	}
	return r.set.RoundTrips() - before
}

// homes counts the distinct home shards of ds.
func (r *frameRig) homes(ds []*data.Data) uint64 {
	seen := map[int]bool{}
	for _, d := range ds {
		seen[r.set.ShardOf(d.UID)] = true
	}
	return uint64(len(seen))
}

// create makes count empty slots named prefix-NNN (two frames at most, not
// counted by any row).
func (r *frameRig) create(prefix string, count int) ([]*data.Data, [][]byte) {
	r.t.Helper()
	names := make([]string, count)
	contents := make([][]byte, count)
	for i := range names {
		names[i] = fmt.Sprintf("%s-%03d", prefix, i)
		contents[i] = []byte("content of " + names[i])
	}
	ds, err := r.node.BitDew.CreateDataBatch(names)
	if err != nil {
		r.t.Fatal(err)
	}
	return ds, contents
}

// TestFrameBudget pins what each operation costs in request frames — on a
// desktop grid, WAN round trips: the floor under every latency a user sees.
// Every row is exact. The DT costs a transfer no frame of its own on a put
// (its report rides the commit frame) and one report frame per home shard on
// anything that downloads, however many data move.
func TestFrameBudget(t *testing.T) {
	h := newShardedHarness(t, 2)
	c := newFrameRig(t, h, "client")
	c.node.SetClientOnly(true)
	bd := c.node.BitDew

	// Put: register + upload locators, then DT reports + publish.
	ds, contents := c.create("one", 1)
	if got := c.frames(func() error { return bd.Put(ds[0], contents[0]) }); got != 2 {
		t.Errorf("Put = %d frames, want 2", got)
	}

	// PutAll: the same two frames per home shard.
	wave, waveContents := c.create("wave", 12)
	s := c.homes(wave) // 2, but for one draw of the UIDs in two thousand
	if got := c.frames(func() error { return bd.PutAll(wave, waveContents) }); got != 2*s {
		t.Errorf("PutAll of 12 over %d shards = %d frames, want %d", s, got, 2*s)
	}

	// Fetch: one lookup frame on a cold locator cache, none on a warm one,
	// and the transfer's one DT report.
	drop := func(d *data.Data) {
		if err := c.node.Backend().Delete(string(d.UID)); err != nil {
			t.Fatal(err)
		}
	}
	drop(ds[0])
	if got := c.frames(func() error { return bd.Fetch(*ds[0], "") }); got != 2 {
		t.Errorf("cold Fetch = %d frames, want 2", got)
	}
	drop(ds[0])
	if got := c.frames(func() error { return bd.Fetch(*ds[0], "") }); got != 1 {
		t.Errorf("warm Fetch = %d frames, want 1", got)
	}

	// Get never reads the locator cache: lookup + report.
	drop(ds[0])
	got := c.frames(func() error {
		handle, err := bd.Get(*ds[0])
		if err != nil {
			return err
		}
		return handle.Wait()
	})
	if got != 2 {
		t.Errorf("Get+Wait = %d frames, want 2", got)
	}

	// A worker round: one heartbeat per shard, then one lookup and one DT
	// report per shard that homes any of the round's assignments.
	w := newFrameRig(t, h, "worker")
	if err := w.node.SyncWait(1); err != nil { // opens its scheduler sessions
		t.Fatal(err)
	}
	for _, row := range []struct {
		name string
		ds   []*data.Data
	}{
		{"6 data", wave[:6]},
		{"1 datum", ds},
	} {
		sched := make([]data.Data, len(row.ds))
		for i, d := range row.ds {
			sched[i] = *d
		}
		a := attr.Attribute{Name: "task", Replica: 1, Protocol: "http"}
		if err := c.node.ActiveData.ScheduleAll(sched, []attr.Attribute{a}); err != nil {
			t.Fatal(err)
		}
		s := w.homes(row.ds)
		if got := w.frames(func() error { return w.node.SyncWait(1) }); got != 2+2*s {
			t.Errorf("worker round assigned %s = %d frames, want %d (2 heartbeats + %d lookups + %d reports)",
				row.name, got, 2+2*s, s, s)
		}
		for _, d := range row.ds {
			if !w.node.Holds(d.UID) {
				t.Errorf("worker round assigned %s: %s did not land", row.name, d.Name)
			}
		}
	}

	// DeleteData: the gating catalog delete, then scheduler + repository.
	if got := c.frames(func() error { return bd.DeleteData(*ds[0]) }); got != 2 {
		t.Errorf("DeleteData = %d frames, want 2", got)
	}
}
