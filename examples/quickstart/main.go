// Quickstart: the smallest complete BitDew program.
//
// It starts the runtime services in-process, creates a datum, puts content
// into the data space, tags it with an attribute that broadcasts it over
// HTTP, and watches two reservoir hosts receive it through the pull model.
//
//	go run ./examples/quickstart
//
// With -service HOST:PORT it attaches to an external service host (start
// one with cmd/bitdew-service) instead of starting services in-process —
// the flow is otherwise identical. Comma-separate several addresses to
// attach to a sharded service plane (bitdew-service -shards N, or one
// -shard-id process per host); the program is unchanged, the client
// routes the datum to its home shard. CI uses this to prove a -state-dir
// service survives a restart with the quickstart's data intact, and that
// a 2-shard plane keeps serving surviving data after losing a shard.
package main

import (
	"flag"
	"fmt"
	"log"

	"bitdew/internal/core"
	"bitdew/internal/runtime"
)

func main() {
	serviceAddr := flag.String("service", "", "external service rpc address(es), comma-separated for a sharded plane (default: start services in-process)")
	flag.Parse()

	// connect yields fresh service connections for each node: direct
	// in-process dispatch by default, TCP with -service. Every connection
	// is a ShardSet — over one service host it simply has one shard.
	var connect func() (*core.ShardSet, error)
	if *serviceAddr != "" {
		addrs := core.ParseMembership(*serviceAddr)
		// Over a replicated plane (bitdew-service -replicas R) the clients
		// learn R from the membership table and route around dead shards.
		connect = func() (*core.ShardSet, error) {
			return core.ConnectSharded(addrs)
		}
	} else {
		// A service container bundles the four D* services (Data Catalog,
		// Data Repository, Data Transfer, Data Scheduler) plus the transfer
		// protocol servers. Addr "" keeps everything in-process.
		services, err := runtime.NewContainer(runtime.ContainerConfig{})
		if err != nil {
			log.Fatal(err)
		}
		defer services.Close()
		connect = func() (*core.ShardSet, error) {
			return core.NewShardSet(core.ConnectLocal(services.Mux)), nil
		}
	}

	// The client node: attach, create a datum, put content.
	clientShards, err := connect()
	if err != nil {
		log.Fatal(err)
	}
	client, err := core.NewNode(core.NodeConfig{
		Host:   "client",
		Shards: clientShards,
	})
	if err != nil {
		log.Fatal(err)
	}
	client.SetClientOnly(true)

	d, err := client.BitDew.CreateData("greeting")
	if err != nil {
		log.Fatal(err)
	}
	if err := client.BitDew.Put(d, []byte("hello, data space")); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("put: %s\n", d)

	// Tag it: one instance on every node, distributed over HTTP.
	a, err := client.ActiveData.CreateAttribute("attr greeting = { replica = -1, oob = http }")
	if err != nil {
		log.Fatal(err)
	}
	if err := client.ActiveData.Schedule(*d, a); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scheduled: %s\n", a)

	// Two reservoir hosts join and pull. The runtime does the rest: the
	// scheduler assigns the datum, the transfer engine fetches it out-of-
	// band, the MD5 is verified, and the copy event fires.
	for i := 1; i <= 2; i++ {
		workerShards, err := connect()
		if err != nil {
			log.Fatal(err)
		}
		worker, err := core.NewNode(core.NodeConfig{
			Host:   fmt.Sprintf("worker-%d", i),
			Shards: workerShards,
		})
		if err != nil {
			log.Fatal(err)
		}
		worker.ActiveData.AddCallback(core.EventHandler{
			OnDataCopy: func(e core.Event) {
				content, _ := worker.Backend().Get(string(e.Data.UID))
				fmt.Printf("%s received %q -> %q\n", worker.Host, e.Data.Name, content)
			},
		})
		if err := worker.SyncWait(2); err != nil {
			log.Fatal(err)
		}
	}

	// Search works from any node.
	found, err := client.BitDew.SearchDataFirst("greeting")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("search: found %s with checksum %.8s\n", found.Name, found.Checksum)
	fmt.Println("quickstart complete")
}
