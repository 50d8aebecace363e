package runtime_test

import (
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"bitdew/internal/core"
	"bitdew/internal/data"
	"bitdew/internal/repl"
	"bitdew/internal/rpc"
	"bitdew/internal/runtime"
)

func TestShardedContainerBootAndMembership(t *testing.T) {
	plane, err := runtime.NewShardedContainer(runtime.ShardedConfig{
		Shards:       3,
		DisableFTP:   true,
		DisableSwarm: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer plane.Close()

	addrs := plane.Addrs()
	if len(addrs) != 3 {
		t.Fatalf("3-shard plane has %d addresses", len(addrs))
	}
	// Every shard serves the identical membership table, marked with its
	// own index.
	for i, addr := range addrs {
		c, err := rpc.DialAuto(addr)
		if err != nil {
			t.Fatalf("dial shard %d: %v", i, err)
		}
		table, err := repl.Members(c)
		c.Close()
		if err != nil {
			t.Fatalf("membership of shard %d: %v", i, err)
		}
		if table.Self != i {
			t.Fatalf("shard %d announces itself as %d", i, table.Self)
		}
		if len(table.Addrs) != 3 || table.Addrs[i] != addr {
			t.Fatalf("shard %d membership %v, want self at %d = %s", i, table.Addrs, i, addr)
		}
	}
}

// TestShardedContainerPlacementAndSurvival drives data through a sharded
// plane, kills one shard, and checks data homed on the survivors stay fully
// served while the killed shard's are gone — the blast radius is exactly
// one shard.
func TestShardedContainerPlacementAndSurvival(t *testing.T) {
	plane, err := runtime.NewShardedContainer(runtime.ShardedConfig{
		Shards:       2,
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

	const n = 24
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("datum-%02d", i)
	}
	ds, err := node.BitDew.CreateDataBatch(names)
	if err != nil {
		t.Fatal(err)
	}
	contents := make([][]byte, n)
	for i := range contents {
		contents[i] = []byte(fmt.Sprintf("payload %02d", i))
	}
	if err := node.BitDew.PutAll(ds, contents); err != nil {
		t.Fatal(err)
	}

	// Each datum's catalog entry must live on its home shard and only
	// there.
	perShard := make([]int, 2)
	for _, d := range ds {
		home := set.ShardOf(d.UID)
		perShard[home]++
		if _, err := plane.Shard(home).DC.Get(d.UID); err != nil {
			t.Fatalf("%s missing from home shard %d: %v", d.Name, home, err)
		}
		if _, err := plane.Shard(1 - home).DC.Get(d.UID); err == nil {
			t.Fatalf("%s leaked onto shard %d", d.Name, 1-home)
		}
	}
	if perShard[0] == 0 || perShard[1] == 0 {
		t.Fatalf("degenerate placement: %v (all data on one shard)", perShard)
	}

	// Kill shard 1; every datum homed on shard 0 stays fully reachable
	// through the same client.
	if err := plane.KillShard(1); err != nil {
		t.Fatal(err)
	}
	for i, d := range ds {
		if set.ShardOf(d.UID) != 0 {
			continue
		}
		got, err := node.BitDew.GetBytes(*d)
		if err != nil {
			t.Fatalf("surviving datum %s unreachable: %v", d.Name, err)
		}
		if string(got) != string(contents[i]) {
			t.Fatalf("surviving datum %s content %q, want %q", d.Name, got, contents[i])
		}
	}

	// A NEW client must be able to join the degraded plane with the full
	// membership list (the dead shard's connection is built lazily and
	// heals on restart)...
	lateSet, err := core.ConnectSharded(plane.Addrs())
	if err != nil {
		t.Fatalf("joining a degraded plane: %v", err)
	}
	defer lateSet.Close()
	fresh, err := core.NewNode(core.NodeConfig{Host: "late-client", Shards: lateSet})
	if err != nil {
		t.Fatal(err)
	}
	fresh.SetClientOnly(true)

	// ...searches answer with the SURVIVORS' view instead of failing
	// closed...
	listing, err := fresh.BitDew.AllData()
	if err != nil {
		t.Fatalf("AllData on a degraded plane: %v", err)
	}
	if len(listing) != perShard[0] {
		t.Fatalf("degraded AllData listed %d data, want the survivor's %d", len(listing), perShard[0])
	}

	// ...and a MIXED batch fetch over both shards' data must degrade per
	// datum: the dead shard's data error, the survivors' all land — one
	// shard's failure never gates the rest of the batch.
	fetchable := make([]data.Data, len(ds))
	for i, d := range ds {
		fetchable[i] = *d
	}
	err = fresh.BitDew.FetchAll(fetchable, "")
	if err == nil {
		t.Fatal("mixed FetchAll with a dead shard reported no error")
	}
	for i, d := range ds {
		got, gerr := fresh.Backend().Get(string(d.UID))
		if set.ShardOf(d.UID) == 0 {
			if gerr != nil || string(got) != string(contents[i]) {
				t.Fatalf("mixed fetch lost surviving datum %s: %q, %v", d.Name, got, gerr)
			}
		} else if gerr == nil {
			t.Fatalf("mixed fetch claims dead-shard datum %s", d.Name)
		}
	}
}

// TestShardedContainerRestartRecovers kills and restarts a durable shard
// and checks its data come back — the per-shard administrator-restart.
func TestShardedContainerRestartRecovers(t *testing.T) {
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

	ds, err := node.BitDew.CreateDataBatch([]string{"a", "b", "c", "d", "e", "f"})
	if err != nil {
		t.Fatal(err)
	}
	contents := make([][]byte, len(ds))
	for i := range contents {
		contents[i] = []byte(fmt.Sprintf("content-%d", i))
	}
	if err := node.BitDew.PutAll(ds, contents); err != nil {
		t.Fatal(err)
	}

	for shard := 0; shard < 2; shard++ {
		if err := plane.KillShard(shard); err != nil {
			t.Fatal(err)
		}
		if err := plane.RestartShard(shard); err != nil {
			t.Fatal(err)
		}
	}
	for i, d := range ds {
		got, err := node.BitDew.GetBytes(*d)
		if err != nil {
			t.Fatalf("datum %s lost across shard restart: %v", d.Name, err)
		}
		if string(got) != string(contents[i]) {
			t.Fatalf("datum %s content %q, want %q", d.Name, got, contents[i])
		}
	}
}

// TestRestartWithBootPeersServesCommittedMembership restarts shard 0 of a
// grown durable plane on the address list it was first booted with, as
// `bitdew-service -shard-id 0 -peers <boot list>` does after `bitdew ring
// add`: the shard serves the membership it committed, not its boot list,
// and a client bootstrapped from it alone reaches every datum.
func TestRestartWithBootPeersServesCommittedMembership(t *testing.T) {
	dir := t.TempDir()
	plane, err := runtime.NewShardedContainer(runtime.ShardedConfig{
		Shards:       2,
		StateDir:     dir,
		DisableFTP:   true,
		DisableSwarm: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer plane.Close()
	boot := plane.Addrs()
	// Shard 0 answers ring/Members throughout the reshape that swaps it.
	conn, err := rpc.Dial(boot[0])
	if err != nil {
		t.Fatal(err)
	}
	stop, polled := make(chan struct{}), make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				polled <- nil
				return
			default:
			}
			if _, err := repl.Members(conn); err != nil {
				polled <- err
				return
			}
		}
	}()
	_, err = plane.AddShard()
	close(stop)
	if perr := <-polled; err != nil || perr != nil {
		t.Fatalf("AddShard: %v; ring/Members during it: %v", err, perr)
	}
	conn.Close()
	committed := plane.Addrs()

	set, err := core.ConnectSharded(committed)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	writer, err := core.NewNode(core.NodeConfig{Host: "writer", Shards: set})
	if err != nil {
		t.Fatal(err)
	}
	writer.SetClientOnly(true)
	const n = 30
	for i := 0; i < n; i++ {
		if _, err := writer.BitDew.CreateData(fmt.Sprintf("datum-%02d", i)); err != nil {
			t.Fatal(err)
		}
	}

	if err := plane.KillShard(0); err != nil {
		t.Fatal(err)
	}
	c, err := runtime.NewContainer(runtime.ContainerConfig{
		Addr:         boot[0],
		StateDir:     filepath.Join(dir, "shard-0"),
		DisableFTP:   true,
		DisableSwarm: true,
		Plane:        runtime.Plane{Shard: 0, Addrs: boot},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if conn, err = rpc.Dial(boot[0]); err != nil {
		t.Fatal(err)
	}
	table, err := repl.Members(conn)
	conn.Close()
	if err != nil {
		t.Fatal(err)
	}
	if table.Epoch != 2 || !slices.Equal(table.Addrs, committed) {
		t.Fatalf("restarted shard 0 serves epoch %d over %v, want epoch 2 over %v", table.Epoch, table.Addrs, committed)
	}

	fresh, err := core.ConnectSharded(boot[:1])
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	reader, err := core.NewNode(core.NodeConfig{Host: "reader", Shards: fresh})
	if err != nil {
		t.Fatal(err)
	}
	reader.SetClientOnly(true)
	listing, err := reader.BitDew.AllData()
	if err != nil || len(listing) != n {
		t.Fatalf("a client bootstrapped from shard 0 lists %d data (%v), want %d", len(listing), err, n)
	}
}
