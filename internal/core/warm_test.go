package core_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"bitdew/internal/attr"
	"bitdew/internal/codec"
	"bitdew/internal/core"
	"bitdew/internal/data"
)

// TestPlaneDecodesWarm holds the plane to the one-type-per-method rule: once
// every type has been met, no blob crossing an rpc method or read back from
// a store may open with a prefix other than its receiver's own — that is a
// client and a handler declaring two types for one payload, and it costs a
// fresh decode engine (≈ 7 KB) on every call. Before the rule was enforced
// this read 2 per put (dt/Open, dt/Report), 2 per fetch and 1 per
// membership poll (ring/Members).
func TestPlaneDecodesWarm(t *testing.T) {
	h := newShardedHarness(t, 2)
	set := h.connect()
	master, err := core.NewNode(core.NodeConfig{Host: "master", Shards: set})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(master.Stop)
	master.SetClientOnly(true)
	workers := []*core.Node{h.node("worker-1"), h.node("worker-2")}

	round := func(i int) {
		name := fmt.Sprintf("warm-%d", i)
		content := randBytes(256, int64(i))
		d, err := master.BitDew.CreateData(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := master.BitDew.Put(d, content); err != nil {
			t.Fatal(err)
		}
		if err := master.Backend().Delete(string(d.UID)); err != nil {
			t.Fatal(err)
		}
		if got, err := master.BitDew.GetBytes(*d); err != nil || !bytes.Equal(got, content) {
			t.Fatalf("fetch of %s: %d bytes, %v", name, len(got), err)
		}
		everywhere := attr.Attribute{Name: "both", Replica: len(workers), Protocol: "http"}
		if err := master.ActiveData.ScheduleAll([]data.Data{*d}, []attr.Attribute{everywhere}); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for placed := 0; placed < len(workers); {
			if time.Now().After(deadline) {
				t.Fatalf("%s on %d of %d workers after 10 s", name, placed, len(workers))
			}
			placed = 0
			for _, w := range workers {
				if err := w.SyncWait(1); err != nil {
					t.Fatal(err)
				}
				if w.Holds(d.UID) {
					placed++
				}
			}
		}
		if found, err := master.BitDew.SearchData(name); err != nil || len(found) != 1 {
			t.Fatalf("search of %s: %v, %v", name, found, err)
		}
		set.PollEpoch()
		set.Refresh()
		if err := master.BitDew.DeleteData(*d); err != nil {
			t.Fatal(err)
		}
	}
	round(0) // every type derives its prefix on first use
	before := codec.ForeignDecodes()
	round(1)
	if n := codec.ForeignDecodes() - before; n != 0 {
		t.Errorf("%d blobs opened with a prefix other than their receiver's: some rpc method's client and handler declare different types", n)
	}
}
