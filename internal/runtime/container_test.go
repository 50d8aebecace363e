package runtime

import (
	"bytes"
	"math/rand"
	"testing"

	"bitdew/internal/core"
	"bitdew/internal/data"
	"bitdew/internal/db"
	"bitdew/internal/repository"
)

func TestContainerServesAllServices(t *testing.T) {
	c, err := NewContainer(ContainerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got := c.Mux.Services()
	// Even a lone container is a (one-shard) plane: it serves the membership
	// table and the range-ownership protocol beside the four D* services.
	want := []string{"dc", "dr", "ds", "dt", "repl", "ring"}
	if len(got) != len(want) {
		t.Fatalf("Services = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Services = %v, want %v", got, want)
		}
	}
	protos := c.DR.Protocols()
	if len(protos) != 3 {
		t.Errorf("Protocols = %v, want ftp+http+bittorrent", protos)
	}
}

func TestContainerDisableProtocols(t *testing.T) {
	c, err := NewContainer(ContainerConfig{DisableFTP: true, DisableSwarm: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	protos := c.DR.Protocols()
	if len(protos) != 1 || protos[0] != "http" {
		t.Errorf("Protocols = %v, want [http]", protos)
	}
	if c.FTP != nil || c.Tracker != nil {
		t.Error("disabled servers were started")
	}
}

func TestContainerTCPAddr(t *testing.T) {
	c, err := NewContainer(ContainerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Addr() == "" {
		t.Fatal("no rpc address")
	}
	comms, err := core.Connect(c.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer comms.Close()
	if _, err := comms.DC.All(); err != nil {
		t.Errorf("DC over TCP: %v", err)
	}
	inproc, err := NewContainer(ContainerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer inproc.Close()
	if inproc.Addr() != "" {
		t.Errorf("in-process container has address %q", inproc.Addr())
	}
}

func TestSeederHookStartsOnce(t *testing.T) {
	c, err := NewContainer(ContainerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	content := make([]byte, 100_000)
	rand.New(rand.NewSource(1)).Read(content)
	d := data.NewFromBytes("swarmed", content)
	if err := c.DR.Backend().Put(string(d.UID), content); err != nil {
		t.Fatal(err)
	}
	// First bittorrent locator starts the seeder; second reuses it.
	l1, err := c.DR.Locator(d.UID, "bittorrent")
	if err != nil {
		t.Fatal(err)
	}
	l2, err := c.DR.Locator(d.UID, "bittorrent")
	if err != nil {
		t.Fatal(err)
	}
	if l1.Host != l2.Host {
		t.Errorf("locators differ: %v vs %v", l1, l2)
	}
	c.mu.Lock()
	nSeeders := len(c.seeders)
	c.mu.Unlock()
	if nSeeders != 1 {
		t.Errorf("seeders = %d, want 1", nSeeders)
	}
	// Locator for content the repository does not hold fails.
	if _, err := c.DR.Locator(data.NewUID(), "bittorrent"); err == nil {
		t.Error("seeder started for absent content")
	}
}

func TestContainerCloseIdempotent(t *testing.T) {
	c, err := NewContainer(ContainerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTransientServiceFailureRecovery replays the paper's fault model for
// service hosts: the container crashes, an administrator restarts it, and
// the catalog's meta-data come back from the WAL.
func TestTransientServiceFailureRecovery(t *testing.T) {
	var wal bytes.Buffer
	store := db.NewRowStore(db.WithWAL(&wal))
	backend := repository.NewMemBackend()
	c1, err := NewContainer(ContainerConfig{Store: store, Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	node, err := core.NewNode(core.NodeConfig{Host: "client", Comms: core.ConnectLocal(c1.Mux)})
	if err != nil {
		t.Fatal(err)
	}
	d, err := node.BitDew.CreateData("survives")
	if err != nil {
		t.Fatal(err)
	}
	if err := node.BitDew.Put(d, []byte("durable content")); err != nil {
		t.Fatal(err)
	}
	c1.Close() // crash

	// Restart: new container, state replayed from the WAL, same backend
	// (repository content is on persistent storage in a real deployment).
	recovered := db.NewRowStore()
	if err := recovered.Replay(bytes.NewReader(wal.Bytes())); err != nil {
		t.Fatal(err)
	}
	c2, err := NewContainer(ContainerConfig{Store: recovered, Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	node2, err := core.NewNode(core.NodeConfig{Host: "client2", Comms: core.ConnectLocal(c2.Mux)})
	if err != nil {
		t.Fatal(err)
	}
	found, err := node2.BitDew.SearchDataFirst("survives")
	if err != nil {
		t.Fatalf("datum lost across restart: %v", err)
	}
	got, err := node2.BitDew.GetBytes(found)
	if err != nil || string(got) != "durable content" {
		t.Fatalf("content after restart = %q, %v", got, err)
	}
}

func TestFTPThrottleOption(t *testing.T) {
	c, err := NewContainer(ContainerConfig{FTPThrottle: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.FTP == nil {
		t.Fatal("ftp server missing")
	}
}
