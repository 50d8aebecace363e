package core_test

import (
	"fmt"
	"testing"

	"bitdew/internal/attr"
	"bitdew/internal/core"
	"bitdew/internal/data"
	"bitdew/internal/repository"
	"bitdew/internal/runtime"
	"bitdew/internal/transfer"
)

// shardedHarness is a 2-shard service plane plus helpers for sharded
// clients; everything runs in-process over local Muxes except where a test
// opts into TCP.
type shardedHarness struct {
	t     *testing.T
	plane *runtime.ShardedContainer
}

func newShardedHarness(t *testing.T, shards int) *shardedHarness {
	t.Helper()
	plane, err := runtime.NewShardedContainer(runtime.ShardedConfig{
		Shards:       shards,
		DisableFTP:   true,
		DisableSwarm: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { plane.Close() })
	return &shardedHarness{t: t, plane: plane}
}

func (h *shardedHarness) connect() *core.ShardSet {
	set, err := core.ConnectSharded(h.plane.Addrs())
	if err != nil {
		h.t.Fatal(err)
	}
	h.t.Cleanup(func() { set.Close() })
	return set
}

func (h *shardedHarness) node(host string) *core.Node {
	n, err := core.NewNode(core.NodeConfig{Host: host, Shards: h.connect()})
	if err != nil {
		h.t.Fatal(err)
	}
	h.t.Cleanup(n.Stop)
	return n
}

// putWave creates and fills n data through the node, returning them with
// their contents.
func putWave(t *testing.T, n *core.Node, count int) ([]*data.Data, [][]byte) {
	t.Helper()
	names := make([]string, count)
	for i := range names {
		names[i] = fmt.Sprintf("wave-%03d", i)
	}
	ds, err := n.BitDew.CreateDataBatch(names)
	if err != nil {
		t.Fatal(err)
	}
	contents := make([][]byte, count)
	for i := range contents {
		contents[i] = []byte(fmt.Sprintf("content of %s", names[i]))
	}
	if err := n.BitDew.PutAll(ds, contents); err != nil {
		t.Fatal(err)
	}
	return ds, contents
}

// TestShardedPutAllPartitions checks a batch put lands every datum on its
// home shard and nowhere else, and that the data stay fetchable through
// the sharded client.
func TestShardedPutAllPartitions(t *testing.T) {
	h := newShardedHarness(t, 2)
	master := h.node("master")
	master.SetClientOnly(true)
	ds, contents := putWave(t, master, 16)

	set := core.NewShardSet(core.ConnectLocal(h.plane.Shard(0).Mux), core.ConnectLocal(h.plane.Shard(1).Mux))
	for i, d := range ds {
		home := set.ShardOf(d.UID)
		if _, err := h.plane.Shard(home).DC.Get(d.UID); err != nil {
			t.Fatalf("%s not on home shard %d: %v", d.Name, home, err)
		}
		if _, err := h.plane.Shard(1 - home).DC.Get(d.UID); err == nil {
			t.Fatalf("%s duplicated onto shard %d", d.Name, 1-home)
		}
		got, err := master.BitDew.GetBytes(*d)
		if err != nil {
			t.Fatalf("fetch %s: %v", d.Name, err)
		}
		if string(got) != string(contents[i]) {
			t.Fatalf("fetch %s: got %q want %q", d.Name, got, contents[i])
		}
	}
}

// TestShardedSearchMerges checks the catalog fan-out: search and ls see
// every shard's data in stable UID order.
func TestShardedSearchMerges(t *testing.T) {
	h := newShardedHarness(t, 2)
	master := h.node("master")
	master.SetClientOnly(true)
	ds, _ := putWave(t, master, 10)

	all, err := master.BitDew.AllData()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(ds) {
		t.Fatalf("AllData over 2 shards: %d data, want %d", len(all), len(ds))
	}
	for i := 1; i < len(all); i++ {
		if !(all[i-1].UID < all[i].UID) {
			t.Fatalf("AllData not in UID order at %d: %s >= %s", i, all[i-1].UID, all[i].UID)
		}
	}
	first, err := master.BitDew.SearchDataFirst(ds[3].Name)
	if err != nil {
		t.Fatal(err)
	}
	if first.UID != ds[3].UID {
		t.Fatalf("search %s found %s", ds[3].Name, first.UID)
	}
}

// TestShardedScheduleAndSync checks the scheduling path end to end over
// shards: a broadcast datum reaches a worker regardless of which shard it
// homes on, because the worker heartbeats every shard's scheduler.
func TestShardedScheduleAndSync(t *testing.T) {
	h := newShardedHarness(t, 2)
	master := h.node("master")
	master.SetClientOnly(true)
	ds, contents := putWave(t, master, 8)

	scheduled := make([]data.Data, len(ds))
	for i, d := range ds {
		scheduled[i] = *d
	}
	bcast := attr.Attribute{Name: "everywhere", Replica: attr.ReplicaAll, Protocol: "http"}
	if err := master.ActiveData.ScheduleAll(scheduled, []attr.Attribute{bcast}); err != nil {
		t.Fatal(err)
	}

	worker := h.node("worker-1")
	if err := worker.SyncWait(2); err != nil {
		t.Fatal(err)
	}
	for i, d := range ds {
		if !worker.Holds(d.UID) {
			t.Fatalf("worker missing broadcast datum %s", d.Name)
		}
		got, err := worker.Backend().Get(string(d.UID))
		if err != nil || string(got) != string(contents[i]) {
			t.Fatalf("worker content of %s: %q, %v", d.Name, got, err)
		}
	}
}

// TestShardedDeleteRoutesHome checks DeleteData cleans the datum off its
// home shard (catalog, scheduler, repository) through the sharded client.
func TestShardedDeleteRoutesHome(t *testing.T) {
	h := newShardedHarness(t, 2)
	master := h.node("master")
	master.SetClientOnly(true)
	ds, _ := putWave(t, master, 4)

	victim := ds[0]
	if err := master.BitDew.DeleteData(*victim); err != nil {
		t.Fatal(err)
	}
	set := core.NewShardSet(core.ConnectLocal(h.plane.Shard(0).Mux), core.ConnectLocal(h.plane.Shard(1).Mux))
	home := h.plane.Shard(set.ShardOf(victim.UID))
	if _, err := home.DC.Get(victim.UID); err == nil {
		t.Fatalf("%s still in home catalog after delete", victim.Name)
	}
	if home.DR.Has(victim.UID) {
		t.Fatalf("%s content still in home repository after delete", victim.Name)
	}
	survivors, err := master.BitDew.AllData()
	if err != nil {
		t.Fatal(err)
	}
	if len(survivors) != len(ds)-1 {
		t.Fatalf("%d data after delete, want %d", len(survivors), len(ds)-1)
	}
}

// TestLocatorCacheSkipsWire pins the cache contract: the second FetchAll
// of the same data answers every locator lookup from the cache — no
// lookup misses, one hit per datum. (The downloads themselves still
// report to the DT; the cache removes the catalog/repository lookup frames,
// which the round-trip counts below show.)
func TestLocatorCacheSkipsWire(t *testing.T) {
	h := newShardedHarness(t, 2)
	set := h.connect()
	node, err := core.NewNode(core.NodeConfig{Host: "client", Shards: set})
	if err != nil {
		t.Fatal(err)
	}
	node.SetClientOnly(true)
	ds, _ := putWave(t, node, 6)

	fetchable := make([]data.Data, len(ds))
	for i, d := range ds {
		fetchable[i] = *d
	}
	start := set.RoundTrips()
	if err := node.BitDew.FetchAll(fetchable, ""); err != nil {
		t.Fatal(err)
	}
	coldTrips := set.RoundTrips() - start
	hits, misses := set.LocatorCacheStats()
	if hits != 0 || misses != uint64(len(ds)) {
		t.Fatalf("first fetch: %d hits, %d misses — expected %d cold misses", hits, misses, len(ds))
	}

	before := set.RoundTrips()
	if err := node.BitDew.FetchAll(fetchable, ""); err != nil {
		t.Fatal(err)
	}
	warmTrips := set.RoundTrips() - before
	hits, misses = set.LocatorCacheStats()
	if misses != uint64(len(ds)) {
		t.Fatalf("second fetch missed the cache: %d misses total, want still %d", misses, len(ds))
	}
	if hits != uint64(len(ds)) {
		t.Fatalf("second fetch: %d cache hits for %d data", hits, len(ds))
	}
	// The warm fetch drops the per-shard lookup frames; what remains is the
	// one DT report frame per home shard.
	homes := map[int]bool{}
	for _, d := range ds {
		homes[set.ShardOf(d.UID)] = true
	}
	if s := uint64(len(homes)); coldTrips != 2*s || warmTrips != s {
		t.Fatalf("cold fetch cost %d round trips, cached fetch %d; want %d and %d", coldTrips, warmTrips, 2*s, s)
	}
}

// TestLocatorCacheHealsAfterRestart pins the staleness story: locators
// cached before a full plane restart point at dead protocol endpoints; the
// fetch path must invalidate, re-look-up and succeed — not strand.
func TestLocatorCacheHealsAfterRestart(t *testing.T) {
	plane, err := runtime.NewShardedContainer(runtime.ShardedConfig{
		Shards:       2,
		StateDir:     t.TempDir(),
		DisableFTP:   true,
		DisableSwarm: true,
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
	ds, contents := putWave(t, node, 4)

	// Warm the cache, then bounce both shards: the HTTP endpoints move.
	for _, d := range ds {
		if _, err := node.BitDew.GetBytes(*d); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := plane.KillShard(i); err != nil {
			t.Fatal(err)
		}
		if err := plane.RestartShard(i); err != nil {
			t.Fatal(err)
		}
	}
	for i, d := range ds {
		got, err := node.BitDew.GetBytes(*d)
		if err != nil {
			t.Fatalf("fetch %s through stale cache: %v", d.Name, err)
		}
		if string(got) != string(contents[i]) {
			t.Fatalf("fetch %s: got %q want %q", d.Name, got, contents[i])
		}
	}
}

// TestShardGetLooksUpInOneRoundTrip pins Get onto the one locator lookup:
// on a cold cache the catalog's locators and the repository's fallback
// travel in one frame to the datum's home shard, not as two sequential
// calls. The download's own DT traffic goes over a second connection so the
// set under test counts the lookup alone.
func TestShardGetLooksUpInOneRoundTrip(t *testing.T) {
	h := newShardedHarness(t, 2)
	writer := h.node("writer")
	writer.SetClientOnly(true)
	ds, contents := putWave(t, writer, 1)

	set, dtSet := h.connect(), h.connect()
	backend := repository.NewMemBackend()
	engine := transfer.NewEngineRouted(backend, func(uid data.UID) *transfer.Client {
		return dtSet.For(uid).DT
	}, "reader", 1)
	reader := core.NewBitDewSharded(set, backend, engine, "reader")

	before := set.RoundTrips()
	handle, err := reader.Get(*ds[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := handle.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := set.RoundTrips() - before; got != 1 {
		t.Errorf("Get's lookup cost %d round trips on a cold cache, want 1", got)
	}
	if got, err := backend.Get(string(ds[0].UID)); err != nil || string(got) != string(contents[0]) {
		t.Fatalf("Get fetched %q, %v; want %q", got, err, contents[0])
	}
	if _, misses := set.LocatorCacheStats(); misses != 0 {
		t.Errorf("Get read the locator cache (%d misses): it must only feed it", misses)
	}
	if err := reader.Fetch(*ds[0], ""); err != nil {
		t.Fatal(err)
	}
	if hits, _ := set.LocatorCacheStats(); hits != 1 {
		t.Errorf("a fetch after Get hit the locator cache %d times, want 1: Get's lookup must feed it", hits)
	}
}
