// Command bitdew-service runs BitDew's stable node: a service container
// hosting the four D* services (Data Catalog, Data Repository, Data
// Transfer, Data Scheduler) plus the protocol back-ends (FTP-like server,
// HTTP server, swarm tracker) over shared storage.
//
// Usage:
//
//	bitdew-service -addr 127.0.0.1:4567 [-state-dir ./state] [-datadir ./store]
//	bitdew-service -addr 127.0.0.1:4601 -shard-id 0 -peers 127.0.0.1:4601,127.0.0.1:4602 [-replicas 2] [-state-dir ./state]
//	bitdew-service -addr 127.0.0.1:4600 -shards 4 [-replicas 2] [-state-dir ./state]
//
// A service plane is N containers, and every container is one shard of one:
// it serves the membership table under the "ring" rpc service (bitdew ring)
// and runs the range-ownership protocol: with -replicas R > 1 its key ranges
// replicate onto R-1 successors with automatic failover, otherwise it takes
// part in live grow/shrink (bitdew ring add/drain). The ordered -peers list is the membership table every process
// and every client must share, because data home onto shards by consistent
// hash over that order, and it is what the shard advertises — so it names
// addresses clients can dial. A bare -addr A is shard 0 of the one-shard
// plane [A]; to bind a wildcard, say which address to advertise:
// -addr 0.0.0.0:4567 -shard-id 0 -peers myhost:4567. -shards N hosts a
// whole plane in this process instead, shard i listening on the -addr
// port + i.
//
// With -state-dir, a shard's catalog data and locators, scheduler
// placements and repository endpoints are checkpointed under
// <state-dir>/meta (snapshot + compacted write-ahead log) and repository
// content under <state-dir>/data (per shard under <state-dir>/shard-<i>
// with -shards), and all of it is recovered on restart — the paper's
// transient fault model for service hosts: an administrator restarts them.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"bitdew/internal/core"
	"bitdew/internal/repository"
	"bitdew/internal/runtime"
)

// options are the CLI flags, separated from main so tests can drive the
// same configuration path the binary runs.
type options struct {
	addr     string
	stateDir string
	dataDir  string
	throttle int64
	shards   int
	shardID  int
	peers    string
	replicas int
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", "127.0.0.1:4567", "rpc listen address (with -shards, shard i listens on port+i)")
	flag.StringVar(&o.stateDir, "state-dir", "", "directory checkpointing ALL service state (metadata + content); restart recovers it")
	flag.StringVar(&o.dataDir, "datadir", "", "directory for repository content (default: in-memory, or <state-dir>/data)")
	flag.Int64Var(&o.throttle, "throttle", 0, "ftp server per-connection rate cap in bytes/s (0 = unlimited)")
	flag.IntVar(&o.shards, "shards", 0, "run a whole service plane of N containers in this process")
	flag.IntVar(&o.shardID, "shard-id", -1, "serve one shard of a multi-process plane (requires -peers)")
	flag.StringVar(&o.peers, "peers", "", "comma-separated shard addresses of the whole plane, in placement order")
	flag.IntVar(&o.replicas, "replicas", 1, "replication factor R of the plane: each key range lives on its home shard plus R-1 successors, with automatic failover (needs -shards or -shard-id/-peers)")
	flag.Parse()

	if o.replicas > 1 && o.shards < 1 && o.shardID < 0 {
		log.Fatalf("-replicas %d needs a sharded plane (-shards N, or -shard-id/-peers)", o.replicas)
	}
	if o.shards < 0 {
		log.Fatalf("-shards %d: want a positive shard count", o.shards)
	}
	// (Changing the shard count of an EXISTING -shards state dir re-homes
	// data without migrating them; grow a live plane with `bitdew ring
	// add` instead.)
	if o.shards >= 1 {
		if err := runShardedPlane(o); err != nil {
			log.Fatal(err)
		}
		return
	}

	cfg, err := buildConfig(o)
	if err != nil {
		log.Fatal(err)
	}
	// A lone process cannot know whether a peer promoted over its ranges
	// while it was down, so it always boots probing (no SkipBootCheck).
	c, err := runtime.NewContainer(cfg)
	if err != nil {
		log.Fatalf("starting services: %v", err)
	}
	defer c.Close()

	table := c.Membership()
	fmt.Printf("bitdew-service shard %d of %d listening\n", table.Self, len(table.Addrs))
	fmt.Printf("  membership:        %s (epoch %d)\n", strings.Join(table.Addrs, ","), table.Epoch)
	if table.Replicas > 1 {
		fmt.Printf("  replication:       R=%d (automatic failover)\n", table.Replicas)
	}
	fmt.Printf("  rpc (dc/dr/dt/ds): %s\n", c.Addr())
	if o.stateDir != "" {
		fmt.Printf("  state:             %s (restartable)\n", o.stateDir)
	}
	if c.FTP != nil {
		fmt.Printf("  ftp:               %s\n", c.FTP.Addr())
	}
	if c.HTTP != nil {
		fmt.Printf("  http:              %s\n", c.HTTP.Addr())
	}
	if c.Tracker != nil {
		fmt.Printf("  swarm tracker:     %s\n", c.Tracker.Addr())
	}

	awaitSignal()
}

func awaitSignal() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Println("shutting down")
}

// shardMembership resolves the -shard-id/-peers pair into the membership
// table; neither means the one-shard plane at -addr, which the container
// fills in from the address it actually bound — and advertises, so it must
// be one clients can dial.
func shardMembership(o options) ([]string, int, error) {
	if o.shardID < 0 && o.peers == "" {
		if host, _, err := net.SplitHostPort(o.addr); err == nil && (host == "" || net.ParseIP(host).IsUnspecified()) {
			return nil, 0, fmt.Errorf("-addr %s binds every interface; say which address clients dial: -shard-id 0 -peers HOST:PORT", o.addr)
		}
		return nil, 0, nil
	}
	if o.shardID < 0 || o.peers == "" {
		return nil, 0, fmt.Errorf("-shard-id and -peers go together")
	}
	peers := core.ParseMembership(o.peers)
	if o.shardID >= len(peers) {
		return nil, 0, fmt.Errorf("-shard-id %d out of range for %d peers", o.shardID, len(peers))
	}
	return peers, o.shardID, nil
}

// shardAddrs derives the N listen addresses of a single-process plane from
// the base address: same host, consecutive ports.
func shardAddrs(base string, n int) ([]string, error) {
	host, portStr, err := net.SplitHostPort(base)
	if err != nil {
		return nil, fmt.Errorf("-addr %q: %w", base, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return nil, fmt.Errorf("-addr %q: port: %w", base, err)
	}
	if port == 0 {
		return nil, nil // let every shard pick its own port
	}
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = net.JoinHostPort(host, strconv.Itoa(port+i))
	}
	return addrs, nil
}

// runShardedPlane serves a whole N-shard plane from this process.
func runShardedPlane(o options) error {
	if o.dataDir != "" {
		return fmt.Errorf("-shards manages per-shard state; use -state-dir, not -datadir")
	}
	if o.shardID >= 0 || o.peers != "" {
		return fmt.Errorf("-shards runs the whole plane; -shard-id/-peers are for one-shard-per-process deployments")
	}
	addrs, err := shardAddrs(o.addr, o.shards)
	if err != nil {
		return err
	}
	plane, err := runtime.NewShardedContainer(runtime.ShardedConfig{
		Shards:      o.shards,
		Addrs:       addrs,
		StateDir:    o.stateDir,
		FTPThrottle: o.throttle,
		Replicas:    o.replicas,
		ReplLogf:    log.Printf,
	})
	if err != nil {
		return fmt.Errorf("starting sharded plane: %v", err)
	}
	defer plane.Close()

	fmt.Printf("bitdew-service sharded plane listening (%d shards)\n", plane.N())
	if plane.Replicas() > 1 {
		fmt.Printf("  replication:       R=%d (automatic failover)\n", plane.Replicas())
	}
	fmt.Printf("  membership:        %s\n", strings.Join(plane.Addrs(), ","))
	for i, addr := range plane.Addrs() {
		fmt.Printf("  shard %d rpc:       %s\n", i, addr)
	}
	if o.stateDir != "" {
		fmt.Printf("  state:             %s (per-shard, restartable)\n", o.stateDir)
	}

	awaitSignal()
	return nil
}

// buildConfig turns CLI options into the configuration of the one container
// this process hosts.
func buildConfig(o options) (runtime.ContainerConfig, error) {
	cfg := runtime.ContainerConfig{Addr: o.addr, FTPThrottle: o.throttle, StateDir: o.stateDir}
	peers, self, err := shardMembership(o)
	if err != nil {
		return cfg, err
	}
	cfg.Plane = runtime.Plane{Shard: self, Addrs: peers, Replicas: o.replicas, Logf: log.Printf}
	if o.dataDir != "" {
		if cfg.Backend, err = repository.NewDirBackend(o.dataDir); err != nil {
			return cfg, fmt.Errorf("opening datadir: %w", err)
		}
	}
	return cfg, nil
}
