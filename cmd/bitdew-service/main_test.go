package main

import (
	"testing"

	"bitdew/internal/attr"
	"bitdew/internal/core"
	"bitdew/internal/runtime"
)

// startFromOptions builds the container exactly as main does.
func startFromOptions(t *testing.T, o options) (*runtime.Container, func()) {
	t.Helper()
	o.shardID = -1 // the flag's default: no -shard-id/-peers
	cfg, err := buildConfig(o)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Addr = "" // serve in-process for the test
	cfg.DisableFTP = true
	cfg.DisableSwarm = true
	c, err := runtime.NewContainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, func() { c.Close() }
}

// populate puts one scheduled datum through the service plane.
func populate(t *testing.T, c *runtime.Container) {
	t.Helper()
	node, err := core.NewNode(core.NodeConfig{Host: "cli", Comms: core.ConnectLocal(c.Mux)})
	if err != nil {
		t.Fatal(err)
	}
	node.SetClientOnly(true)
	d, err := node.BitDew.CreateData("greeting")
	if err != nil {
		t.Fatal(err)
	}
	if err := node.BitDew.Put(d, []byte("hello, data space")); err != nil {
		t.Fatal(err)
	}
	if err := node.ActiveData.Schedule(*d, attr.Attribute{Name: "greeting", Replica: attr.ReplicaAll, Protocol: "http"}); err != nil {
		t.Fatal(err)
	}
}

func TestStateDirSurvivesRestart(t *testing.T) {
	o := options{stateDir: t.TempDir()}

	c, stop := startFromOptions(t, o)
	populate(t, c)
	stop() // the "crash"

	re, stop2 := startFromOptions(t, o)
	defer stop2()

	node, err := core.NewNode(core.NodeConfig{Host: "cli2", Comms: core.ConnectLocal(re.Mux)})
	if err != nil {
		t.Fatal(err)
	}
	node.SetClientOnly(true)
	d, err := node.BitDew.SearchDataFirst("greeting")
	if err != nil {
		t.Fatal(err)
	}
	content, err := node.BitDew.GetBytes(d)
	if err != nil || string(content) != "hello, data space" {
		t.Fatalf("content after restart = %q, %v", content, err)
	}
	// The broadcast schedule survives too: a worker syncing against the
	// restarted scheduler is assigned the datum.
	if entries := re.DS.Entries(); len(entries) != 1 || !entries[0].Attr.WantsBroadcast() {
		t.Fatalf("scheduler entries after restart: %+v", entries)
	}
	res := re.DS.Sync("fresh-worker", nil)
	if len(res.Fetch) != 1 || res.Fetch[0].Data.Name != "greeting" {
		t.Fatalf("restarted scheduler assigned %+v", res.Fetch)
	}
}
