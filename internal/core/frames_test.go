package core_test

import (
	"fmt"
	"net"
	"testing"
	"time"

	"bitdew/internal/attr"
	"bitdew/internal/core"
	"bitdew/internal/data"
)

// frameRig is a node over loopback TCP to a 2-shard plane whose request
// frames are counted. Its set is static (one ready-made connection per
// shard), so the only frames on it are the operations' own: a set that
// follows the plane's membership also polls it, on a timer. For the same
// reason its DT reports never leave on the monitoring period, only in a
// frame an operation sends.
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
	n.Transfers.SetMonitorPeriod(time.Hour)
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
// Every row is exact. The DT costs a transfer no frame of its own except on a
// fetch, which sends one report frame per home shard however many data move:
// a put's reports ride its commit frame, a worker round's its next heartbeat,
// and a bare Get's whichever frame goes to that shard next.
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

	// Get never reads the locator cache: one lookup; its report waits.
	drop(ds[0])
	got := c.frames(func() error {
		handle, err := bd.Get(*ds[0])
		if err != nil {
			return err
		}
		return handle.Wait()
	})
	if got != 1 {
		t.Errorf("Get+Wait = %d frames, want 1", got)
	}

	// A worker round: one heartbeat per shard, whose answer carries the
	// assignments' locators, so no lookup follows. The DT reports wait for
	// the next round's heartbeats.
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
		if got := w.frames(func() error { return w.node.SyncWait(1) }); got != 2 {
			t.Errorf("worker round assigned %s = %d frames, want 2 heartbeats", row.name, got)
		}
		for _, d := range row.ds {
			if !w.node.Holds(d.UID) {
				t.Errorf("worker round assigned %s: %s did not land", row.name, d.Name)
			}
		}
	}

	// The next round: its two heartbeats carry the last round's one report.
	reports := func() (n int64) {
		for i := 0; i < h.plane.N(); i++ {
			_, requests := h.plane.Shard(i).DT.Stats()
			n += requests
		}
		return n
	}
	before := reports()
	if got := w.frames(func() error { return w.node.SyncWait(1) }); got != 2 {
		t.Errorf("idle worker round = %d frames, want 2 heartbeats", got)
	}
	if got := reports() - before; got != 1 {
		t.Errorf("the next round's heartbeats delivered %d DT reports, want the last round's 1", got)
	}

	// DeleteData: the home shard's catalog delete takes the schedule entry
	// and the content with it.
	if got := c.frames(func() error { return bd.DeleteData(*ds[0]) }); got != 1 {
		t.Errorf("DeleteData = %d frames, want 1", got)
	}
}

// workerRound schedules ds for one worker and returns the frames of the
// worker round that fetches them and the number of their home shards,
// checking each datum landed byte-exact. The worker's scheduler sessions are
// open before the round counted.
func workerRound(t *testing.T, h *shardedHarness, ds []*data.Data, contents [][]byte) (frames, homes uint64) {
	t.Helper()
	w := newFrameRig(t, h, "worker")
	if err := w.node.SyncWait(1); err != nil {
		t.Fatal(err)
	}
	sched := make([]data.Data, len(ds))
	for i, d := range ds {
		sched[i] = *d
	}
	a := attr.Attribute{Name: "task", Replica: 1, Protocol: "http"}
	if err := w.node.ActiveData.ScheduleAll(sched, []attr.Attribute{a}); err != nil {
		t.Fatal(err)
	}
	got := w.frames(func() error { return w.node.SyncWait(1) })
	for i, d := range ds {
		if content, err := w.node.Backend().Get(string(d.UID)); err != nil || string(content) != string(contents[i]) {
			t.Errorf("%s landed as %q, %v; want %q", d.Name, content, err, contents[i])
		}
	}
	return got, w.homes(ds)
}

// putFor creates and puts count data through a client rig on h.
func putFor(t *testing.T, h *shardedHarness, prefix string, count int) ([]*data.Data, [][]byte) {
	t.Helper()
	c := newFrameRig(t, h, "client")
	c.node.SetClientOnly(true)
	ds, contents := c.create(prefix, count)
	if err := c.node.BitDew.PutAll(ds, contents); err != nil {
		t.Fatal(err)
	}
	return ds, contents
}

// TestWorkerRoundHealsStaleLocator: a heartbeat answer whose locator names
// an endpoint that has gone away costs the worker one fresh lookup, after
// which the datum lands byte-exact.
func TestWorkerRoundHealsStaleLocator(t *testing.T) {
	h := newShardedHarness(t, 2)
	ds, contents := putFor(t, h, "stale", 1)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gone := lis.Addr().String()
	lis.Close()
	for i := 0; i < h.plane.N(); i++ {
		h.plane.Shard(i).DS.SetLocate(func(uid data.UID, protocol string) ([]data.Locator, error) {
			return []data.Locator{{DataUID: uid, Protocol: protocol, Host: gone, Ref: string(uid)}}, nil
		})
	}
	if got, _ := workerRound(t, h, ds, contents); got != 3 {
		t.Errorf("worker round with a stale locator = %d frames, want 3 (2 heartbeats + 1 fresh lookup)", got)
	}
}

// TestWorkerRoundLooksUpWhenLocateRefused: when the scheduler's shard cannot
// read an assignment's locators, the assignment goes out bare and the worker
// looks it up itself, one frame per home shard, as a round did before
// heartbeats carried locators.
func TestWorkerRoundLooksUpWhenLocateRefused(t *testing.T) {
	h := newShardedHarness(t, 2)
	ds, contents := putFor(t, h, "refused", 6)
	for i := 0; i < h.plane.N(); i++ {
		h.plane.Shard(i).DS.SetLocate(func(uid data.UID, _ string) ([]data.Locator, error) {
			return nil, fmt.Errorf("locate %s: refused", uid)
		})
	}
	if got, s := workerRound(t, h, ds, contents); got != 2+s {
		t.Errorf("worker round with refused locates = %d frames, want %d (2 heartbeats + %d lookups)", got, 2+s, s)
	}
}

// TestPlaceFramesPerPhase is the frame budget of one wave-distribute place
// (bench/README.md): a broadcast datum and 64 tasks over 4 workers on 2
// shards, the workers stepped round-robin one SyncWait(1) at a time until
// every wanted replica has landed, then every datum deleted. It logs the
// frames of each phase, counted over the client's and the workers'
// connections, and pins each phase to its TestFrameBudget row.
func TestPlaceFramesPerPhase(t *testing.T) {
	h := newShardedHarness(t, 2)
	c := newFrameRig(t, h, "client")
	c.node.SetClientOnly(true)
	rigs := []*frameRig{c}
	workers := make([]*core.Node, 4)
	for i := range workers {
		w := newFrameRig(t, h, fmt.Sprintf("worker-%d", i))
		if err := w.node.SyncWait(1); err != nil { // opens its scheduler sessions
			t.Fatal(err)
		}
		rigs, workers[i] = append(rigs, w), w.node
	}
	frames := func(op func() error) uint64 {
		t.Helper()
		var before, after uint64
		for _, r := range rigs {
			before += r.set.RoundTrips()
		}
		if err := op(); err != nil {
			t.Fatal(err)
		}
		for _, r := range rigs {
			after += r.set.RoundTrips()
		}
		return after - before
	}

	names := make([]string, 65)
	contents := make([][]byte, len(names))
	attrs := make([]attr.Attribute, len(names))
	for i := range names {
		names[i] = fmt.Sprintf("task-%03d", i)
		attrs[i] = attr.Attribute{Name: "task", Replica: 1, FaultTolerant: true, Protocol: "http"}
	}
	names[0] = "bcast"
	attrs[0] = attr.Attribute{Name: "bcast", Replica: attr.ReplicaAll, FaultTolerant: true, Protocol: "http"}
	for i, name := range names {
		contents[i] = []byte("content of " + name)
	}
	var ds []*data.Data
	create := frames(func() (err error) {
		ds, err = c.node.BitDew.CreateDataBatch(names)
		return err
	})
	s := c.homes(ds)
	put := frames(func() error { return c.node.BitDew.PutAll(ds, contents) })
	scheduled := make([]data.Data, len(ds))
	for i, d := range ds {
		scheduled[i] = *d
	}
	schedule := frames(func() error { return c.node.ActiveData.ScheduleAll(scheduled, attrs) })

	placed := func() bool {
		for i, d := range ds {
			held := 0
			for _, w := range workers {
				if w.Holds(d.UID) {
					held++
				}
			}
			if held < 1 || i == 0 && held < len(workers) {
				return false
			}
		}
		return true
	}
	steps := 0
	rounds := frames(func() error {
		for ; !placed(); steps++ {
			if steps == 50 {
				return fmt.Errorf("not placed after %d worker rounds", steps)
			}
			if err := workers[steps%len(workers)].SyncWait(1); err != nil {
				return err
			}
		}
		return nil
	})
	for i, d := range ds {
		for _, w := range workers {
			if content, err := w.Backend().Get(string(d.UID)); w.Holds(d.UID) && (err != nil || string(content) != string(contents[i])) {
				t.Errorf("%s on %s = %q, %v; want %q", d.Name, w.Host, content, err, contents[i])
			}
		}
	}
	deletes := frames(func() error {
		for _, d := range ds {
			if err := c.node.BitDew.DeleteData(*d); err != nil {
				return err
			}
		}
		return nil
	})

	t.Logf("place of %d data over %d home shards: create %d, put %d, schedule %d, worker rounds %d (%d rounds), deletes %d; total %d frames",
		len(ds), s, create, put, schedule, rounds, steps, deletes, create+put+schedule+rounds+deletes)
	for _, row := range []struct {
		phase     string
		got, want uint64
	}{
		{"create", create, s},
		{"put", put, 2 * s},
		{"schedule", schedule, s},
		{"worker rounds", rounds, 2 * uint64(steps)},
		{"deletes", deletes, uint64(len(ds))},
	} {
		if row.got != row.want {
			t.Errorf("%s = %d frames, want %d", row.phase, row.got, row.want)
		}
	}
}
