package runtime_test

import (
	"net"
	"path/filepath"
	"reflect"
	"testing"

	"bitdew/internal/attr"
	"bitdew/internal/core"
	"bitdew/internal/repl"
	"bitdew/internal/rpc"
	"bitdew/internal/runtime"
)

// TestKillShardOutsideMembership: an index DrainShard just retired, or any
// out-of-range index, is an error like RestartShard's — not a panic.
func TestKillShardOutsideMembership(t *testing.T) {
	plane, err := runtime.NewShardedContainer(runtime.ShardedConfig{
		Shards: 2, DisableFTP: true, DisableHTTP: true, DisableSwarm: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer plane.Close()
	retired, err := plane.DrainShard()
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{retired, -1, 7} {
		if err := plane.KillShard(i); err == nil {
			t.Fatalf("KillShard(%d) outside a membership of %d succeeded", i, plane.N())
		}
	}
	if err := plane.KillShard(0); err != nil {
		t.Fatalf("KillShard(0) of the shrunk plane: %v", err)
	}
}

// TestReplicasCappedAtMembership: the container, not its host, caps R at
// the membership size, so `bitdew-service -shard-id 0 -peers A -replicas 2`
// runs — and advertises — an unreplicated one-shard plane. Every R mounts
// the same ownership node, at membership epoch 1.
func TestReplicasCappedAtMembership(t *testing.T) {
	for _, tc := range []struct {
		name            string
		shards, r, want int
	}{
		{"R > N on one shard", 1, 2, 1},
		{"R > N", 2, 3, 2},
		{"R = N", 2, 2, 2},
		{"R = 1", 2, 1, 1},
		{"R = 0", 2, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			// The peer never boots: a fresh-booting replicated shard ships
			// to it in the background and needs no answer to serve.
			addrs := []string{lis.Addr().String(), "127.0.0.1:1"}[:tc.shards]
			c, err := runtime.NewContainer(runtime.ContainerConfig{
				Listener: lis, DisableFTP: true, DisableHTTP: true, DisableSwarm: true,
				Plane: runtime.Plane{Shard: 0, Addrs: addrs, Replicas: tc.r, SkipBootCheck: true},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			table := c.Membership()
			if table.Replicas != tc.want {
				t.Fatalf("advertises R=%d, want %d", table.Replicas, tc.want)
			}
			if c.Repl() == nil {
				t.Fatalf("no ownership node at R=%d", tc.want)
			}
			if table.Epoch != 1 {
				t.Fatalf("epoch %d at R=%d, want 1", table.Epoch, tc.want)
			}
		})
	}
}

// planeAnswers is what a shard tells the outside about the plane it is in.
type planeAnswers struct {
	Members runtime.Membership
	Status  membershipStatus
}

// membershipStatus is the membership part of repl/Status — the rest of the
// reply (stream epoch, sequence number) differs from boot to boot.
type membershipStatus struct {
	Self    int
	Epoch   uint64
	Shards  int
	Staging bool
}

func askPlane(t *testing.T, addr string) planeAnswers {
	t.Helper()
	c, err := rpc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var a planeAnswers
	if a.Members, err = runtime.Members(c); err != nil {
		t.Fatal(err)
	}
	var st repl.StatusReply // the method's one declared reply type
	if err = c.Call(repl.ServiceName, "Status", repl.StatusArgs{}, &st); err != nil {
		t.Fatal(err)
	}
	a.Status = membershipStatus{Self: st.Self, Epoch: st.Epoch, Shards: st.Shards, Staging: st.Staging}
	if len(a.Members.Addrs) != 1 || a.Members.Addrs[0] != addr {
		t.Fatalf("shard at %s advertises %v", addr, a.Members.Addrs)
	}
	a.Members.Addrs = nil // the one field that must differ between two hosts
	return a
}

// TestDeploymentEquivalence pins "one plane, one code path": a one-shard
// plane hosted by ShardedContainer and a lone NewContainer given the same
// Plane answer ring/Members and repl/Status identically, and each recovers
// the state directory the OTHER one wrote.
func TestDeploymentEquivalence(t *testing.T) {
	dirs := [2]string{t.TempDir(), t.TempDir()}
	hosted := func(dir string) (*runtime.Container, func()) {
		plane, err := runtime.NewShardedContainer(runtime.ShardedConfig{
			Shards: 1, StateDir: dir, DisableFTP: true, DisableSwarm: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return plane.Shard(0), func() { plane.Close() }
	}
	lone := func(dir string) (*runtime.Container, func()) {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		c, err := runtime.NewContainer(runtime.ContainerConfig{
			Listener: lis, StateDir: filepath.Join(dir, "shard-0"), DisableFTP: true, DisableSwarm: true,
			Plane: runtime.Plane{Shard: 0, Addrs: []string{lis.Addr().String()}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return c, func() { c.Close() }
	}

	boots := [2]func(string) (*runtime.Container, func()){hosted, lone}
	var answers [2]planeAnswers
	for i, boot := range boots {
		c, stop := boot(dirs[i])
		answers[i] = askPlane(t, c.Addr())
		node, err := core.NewNode(core.NodeConfig{Host: "writer", Comms: core.ConnectLocal(c.Mux)})
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
		if err := node.ActiveData.Schedule(*d, attr.Attribute{Name: "keep", Replica: 2}); err != nil {
			t.Fatal(err)
		}
		stop()
	}
	want := planeAnswers{
		Members: runtime.Membership{Self: 0, Replicas: 0, Epoch: 1},
		Status:  membershipStatus{Self: 0, Epoch: 1, Shards: 1},
	}
	for i, got := range answers {
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("deployment %d answers %+v, want %+v", i, got, want)
		}
	}

	// Restart crosswise: each deployment over the directory the other wrote.
	for i, boot := range boots {
		c, stop := boot(dirs[1-i])
		node, err := core.NewNode(core.NodeConfig{Host: "reader", Comms: core.ConnectLocal(c.Mux)})
		if err != nil {
			t.Fatal(err)
		}
		node.SetClientOnly(true)
		d, err := node.BitDew.SearchDataFirst("greeting")
		if err != nil {
			t.Fatalf("deployment %d over the other's state: %v", i, err)
		}
		if content, err := node.BitDew.GetBytes(d); err != nil || string(content) != "hello, data space" {
			t.Fatalf("deployment %d over the other's state: content %q, %v", i, content, err)
		}
		if entries := c.DS.Entries(); len(entries) != 1 || entries[0].Data.UID != d.UID || entries[0].Attr.Replica != 2 {
			t.Fatalf("deployment %d over the other's state: scheduler entries %+v", i, entries)
		}
		stop()
	}
}
