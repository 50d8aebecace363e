package core_test

import (
	"bytes"
	"fmt"
	"testing"

	"bitdew/internal/attr"
	"bitdew/internal/core"
	"bitdew/internal/data"
	"bitdew/internal/runtime"
)

func TestCreateDataBatch(t *testing.T) {
	h := newHarness(t, false)
	n := h.node("client")
	names := []string{"a", "b", "c"}
	ds, err := n.BitDew.CreateDataBatch(names)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 3 {
		t.Fatalf("created %d slots", len(ds))
	}
	for i, d := range ds {
		if d.Name != names[i] || d.UID == "" {
			t.Errorf("slot %d = %+v", i, d)
		}
		if _, err := h.c.DC.Get(d.UID); err != nil {
			t.Errorf("slot %s not in catalog: %v", d.Name, err)
		}
	}
}

func TestPutAllAndFetchAll(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		t.Run(fmt.Sprintf("tcp=%v", tcp), func(t *testing.T) {
			h := newHarness(t, tcp)
			producer := h.node("producer")

			const n = 10
			names := make([]string, n)
			contents := make([][]byte, n)
			for i := range names {
				names[i] = fmt.Sprintf("blob-%02d", i)
				contents[i] = randBytes(2048, int64(i+1))
			}
			ds, err := producer.BitDew.CreateDataBatch(names)
			if err != nil {
				t.Fatal(err)
			}
			if err := producer.BitDew.PutAll(ds, contents); err != nil {
				t.Fatal(err)
			}
			for i, d := range ds {
				if d.Size != int64(len(contents[i])) || d.Checksum == "" {
					t.Errorf("meta of %s not updated: %+v", d.Name, d)
				}
				locs, err := h.c.DC.Locators(d.UID)
				if err != nil || len(locs) != 1 {
					t.Errorf("locators of %s = %v, %v", d.Name, locs, err)
				}
			}

			// A second node fetches everything in bulk.
			consumer := h.node("consumer")
			fetch := make([]data.Data, n)
			for i, d := range ds {
				fetch[i] = *d
			}
			if err := consumer.BitDew.FetchAll(fetch, ""); err != nil {
				t.Fatal(err)
			}
			for i, d := range fetch {
				got, err := consumer.Backend().Get(string(d.UID))
				if err != nil || !bytes.Equal(got, contents[i]) {
					t.Errorf("fetched %s: %d bytes, %v", d.Name, len(got), err)
				}
			}
		})
	}
}

func TestPutAllLengthMismatch(t *testing.T) {
	h := newHarness(t, false)
	n := h.node("client")
	d, err := n.BitDew.CreateData("x")
	if err != nil {
		t.Fatal(err)
	}
	if err := n.BitDew.PutAll([]*data.Data{d}, nil); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if err := n.BitDew.PutAll(nil, nil); err != nil {
		t.Errorf("empty PutAll: %v", err)
	}
}

func TestFetchAllNoLocator(t *testing.T) {
	h := newHarness(t, false)
	n := h.node("client")
	orphan := *data.New("orphan") // never Put: no locator anywhere
	err := n.BitDew.FetchAll([]data.Data{orphan}, "")
	if err == nil {
		t.Error("FetchAll of unstored datum succeeded")
	}
}

// TestPutAllRoundTripCollapse is the acceptance check at the core layer:
// putting N data through PutAll must use far fewer round trips (≥5× here,
// actually ~100×) than N sequential Puts.
func TestPutAllRoundTripCollapse(t *testing.T) {
	const n = 100
	mkInputs := func() ([]string, [][]byte) {
		names := make([]string, n)
		contents := make([][]byte, n)
		for i := range names {
			names[i] = fmt.Sprintf("d%03d", i)
			contents[i] = []byte(fmt.Sprintf("content-%03d", i))
		}
		return names, contents
	}

	h := newHarness(t, true)

	seq := h.comms()
	seqNode, err := core.NewNode(core.NodeConfig{Host: "seq", Comms: seq})
	if err != nil {
		t.Fatal(err)
	}
	names, contents := mkInputs()
	base := seq.RoundTrips()
	for i := range names {
		d, err := seqNode.BitDew.CreateData(names[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := seqNode.BitDew.Put(d, contents[i]); err != nil {
			t.Fatal(err)
		}
	}
	seqTrips := seq.RoundTrips() - base

	batch := h.comms()
	batchNode, err := core.NewNode(core.NodeConfig{Host: "batch", Comms: batch})
	if err != nil {
		t.Fatal(err)
	}
	names, contents = mkInputs()
	base = batch.RoundTrips()
	ds, err := batchNode.BitDew.CreateDataBatch(names)
	if err != nil {
		t.Fatal(err)
	}
	if err := batchNode.BitDew.PutAll(ds, contents); err != nil {
		t.Fatal(err)
	}
	batchTrips := batch.RoundTrips() - base

	t.Logf("sequential: %d round trips, batch: %d round trips", seqTrips, batchTrips)
	if batchTrips*5 > seqTrips {
		t.Errorf("batch path used %d round trips vs %d sequential: want ≥5× fewer", batchTrips, seqTrips)
	}
}

func TestScheduleAll(t *testing.T) {
	h := newHarness(t, false)
	n := h.node("client")
	ds, err := n.BitDew.CreateDataBatch([]string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	sched := make([]data.Data, len(ds))
	for i, d := range ds {
		sched[i] = *d
	}
	if err := n.ActiveData.ScheduleAll(sched, []attr.Attribute{{Name: "x", Replica: 1}}); err != nil {
		t.Fatal(err)
	}
	if got := len(h.c.DS.Entries()); got != 3 {
		t.Errorf("scheduled %d entries, want 3", got)
	}
	// Mismatched attribute count is rejected client-side.
	if err := n.ActiveData.ScheduleAll(sched, make([]attr.Attribute, 2)); err == nil {
		t.Error("mismatched attribute slice accepted")
	}
}

// TestDeleteDataIsOneFrame: the home shard's catalog delete takes the
// schedule entry and the content with it, so a delete costs one frame.
func TestDeleteDataIsOneFrame(t *testing.T) {
	h := newHarness(t, true)
	comms := h.comms()
	n, err := core.NewNode(core.NodeConfig{Host: "client", Comms: comms})
	if err != nil {
		t.Fatal(err)
	}
	d, err := n.BitDew.CreateData("doomed")
	if err != nil {
		t.Fatal(err)
	}
	if err := n.BitDew.Put(d, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := n.ActiveData.Schedule(*d, attr.Attribute{Name: "x", Replica: 1}); err != nil {
		t.Fatal(err)
	}
	base := comms.RoundTrips()
	if err := n.BitDew.DeleteData(*d); err != nil {
		t.Fatal(err)
	}
	if trips := comms.RoundTrips() - base; trips != 1 {
		t.Errorf("DeleteData used %d round trips, want 1", trips)
	}
	if _, err := h.c.DC.Get(d.UID); err == nil {
		t.Error("datum still in catalog")
	}
	if len(h.c.DS.Entries()) != 0 {
		t.Error("datum still scheduled")
	}
	if h.c.DR.Has(d.UID) {
		t.Error("content still in the repository")
	}
	// Deleting an unscheduled datum stays non-fatal for DS/DR legs.
	d2, _ := n.BitDew.CreateData("plain")
	if err := n.BitDew.DeleteData(*d2); err != nil {
		t.Errorf("DeleteData of unscheduled datum: %v", err)
	}
}

// TestNodeDeltaHeartbeat drives a node against the scheduler and asserts
// the heartbeats really ship deltas: after the cache is quiescent the
// session survives, and a scheduler restart forces a transparent resync.
func TestNodeDeltaHeartbeat(t *testing.T) {
	h := newHarness(t, false)
	master := h.node("master")
	d, err := master.BitDew.CreateData("shared")
	if err != nil {
		t.Fatal(err)
	}
	if err := master.BitDew.Put(d, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := master.ActiveData.Schedule(*d, attr.Attribute{Name: "x", Replica: 1}); err != nil {
		t.Fatal(err)
	}

	worker := h.node("worker")
	if err := worker.SyncWait(2); err != nil {
		t.Fatal(err)
	}
	if !worker.Holds(d.UID) {
		t.Fatal("worker did not receive the datum")
	}
	// Quiescent heartbeats keep working (empty deltas).
	for i := 0; i < 3; i++ {
		if err := worker.SyncOnce(); err != nil {
			t.Fatal(err)
		}
	}
	if !worker.Holds(d.UID) {
		t.Error("quiescent heartbeat dropped the datum")
	}
}

// TestNodeResyncAfterSchedulerRestart: a fresh scheduler (lost sessions)
// answers Resync and the node transparently re-reports its full cache.
func TestNodeResyncAfterSchedulerRestart(t *testing.T) {
	store := runtime.ContainerConfig{}
	_ = store
	h := newHarness(t, false)
	master := h.node("master")
	d, err := master.BitDew.CreateData("shared")
	if err != nil {
		t.Fatal(err)
	}
	if err := master.BitDew.Put(d, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := master.ActiveData.Schedule(*d, attr.Attribute{Name: "x", Replica: 1}); err != nil {
		t.Fatal(err)
	}
	worker := h.node("worker")
	if err := worker.SyncWait(2); err != nil {
		t.Fatal(err)
	}
	if !worker.Holds(d.UID) {
		t.Fatal("worker did not receive the datum")
	}

	// Simulate a scheduler restart by wiping the delta sessions: a full
	// Sync from another identity only clears that host's session, so use
	// the service-side restart path — re-register the datum on a fresh
	// scheduler is overkill; instead force an epoch mismatch via a full
	// sync under the worker's identity from outside the node.
	h.c.DS.Sync("worker", []data.UID{d.UID})

	// The node's next delta heartbeat hits an epoch mismatch, resyncs in
	// the same SyncOnce call, and keeps its cache.
	if err := worker.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	if !worker.Holds(d.UID) {
		t.Error("resync dropped the datum")
	}
	if owners := h.c.DS.Owners(d.UID); len(owners) != 1 || owners[0] != "worker" {
		t.Errorf("owners after resync = %v", owners)
	}
}
