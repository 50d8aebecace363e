package runtime

import (
	"testing"

	"bitdew/internal/attr"
	"bitdew/internal/core"
)

// TestContainerRestartFromStateDir kills a container and rebuilds it over
// the same state directory: catalog data + locators, scheduler placements
// and repository content must all survive.
func TestContainerRestartFromStateDir(t *testing.T) {
	dir := t.TempDir()
	cfg := ContainerConfig{StateDir: dir, DisableFTP: true, DisableSwarm: true}
	c, err := NewContainer(cfg)
	if err != nil {
		t.Fatal(err)
	}

	node, err := core.NewNode(core.NodeConfig{Host: "client", Comms: core.ConnectLocal(c.Mux)})
	if err != nil {
		t.Fatal(err)
	}
	node.SetClientOnly(true)
	d, err := node.BitDew.CreateData("survivor")
	if err != nil {
		t.Fatal(err)
	}
	if err := node.BitDew.Put(d, []byte("durable payload")); err != nil {
		t.Fatal(err)
	}
	if err := node.ActiveData.Schedule(*d, attr.Attribute{Name: "keep", Replica: 2, FaultTolerant: true}); err != nil {
		t.Fatal(err)
	}
	c.DS.Sync("w1", nil) // place one replica so a placement exists to lose

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := NewContainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()

	// Catalog: datum and its locator survive.
	got, err := re.DC.Get(d.UID)
	if err != nil || got.Name != "survivor" {
		t.Fatalf("catalog after restart: %+v, %v", got, err)
	}
	locs, err := re.DC.Locators(d.UID)
	if err != nil || len(locs) == 0 {
		t.Fatalf("locators after restart: %v, %v", locs, err)
	}

	// Scheduler: the entry and w1's placement survive.
	entries := re.DS.Entries()
	if len(entries) != 1 || entries[0].Data.UID != d.UID || entries[0].Attr.Replica != 2 {
		t.Fatalf("scheduler entries after restart: %+v", entries)
	}
	if owners := re.DS.Owners(d.UID); len(owners) != 1 || owners[0] != "w1" {
		t.Fatalf("owners after restart: %v", owners)
	}

	// Repository: the content itself survives (DirBackend under StateDir),
	// and a fresh node can fetch it.
	node2, err := core.NewNode(core.NodeConfig{Host: "client2", Comms: core.ConnectLocal(re.Mux)})
	if err != nil {
		t.Fatal(err)
	}
	content, err := node2.BitDew.GetBytes(got)
	if err != nil || string(content) != "durable payload" {
		t.Fatalf("content after restart = %q, %v", content, err)
	}
}
