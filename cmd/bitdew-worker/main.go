// Command bitdew-worker runs a reservoir host: a volatile node offering
// its local storage to the data space. It attaches to a service host,
// then pulls the Data Scheduler periodically, downloading whatever data
// the attributes place on it and dropping whatever becomes obsolete.
//
// Usage:
//
//	bitdew-worker -service 127.0.0.1:4567 -host worker-1 [-sync 1s] [-cachedir ./cache]
//
// Against a sharded service plane, pass every shard's address to -service
// as a comma-separated list in membership order; the worker then
// heartbeats every shard's scheduler and serves whatever each places on
// it.
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"

	"bitdew/internal/core"
	"bitdew/internal/repository"
)

func main() {
	service := flag.String("service", "127.0.0.1:4567", "service rpc address(es); comma-separate a sharded plane's membership")
	host := flag.String("host", "", "host identity (default: os hostname)")
	syncPeriod := flag.Duration("sync", core.DefaultSyncPeriod, "scheduler pull period")
	cacheDir := flag.String("cachedir", "", "directory for the local data cache (default: in-memory)")
	concurrency := flag.Int("transfers", 4, "maximum concurrent transfers")
	flag.Parse()

	name := *host
	if name == "" {
		h, err := os.Hostname()
		if err != nil {
			log.Fatalf("no -host and hostname lookup failed: %v", err)
		}
		name = h
	}

	addrs := core.ParseMembership(*service)
	set, err := core.ConnectSharded(addrs)
	if err != nil {
		log.Fatalf("connecting to %s: %v", *service, err)
	}
	defer set.Close()

	var backend repository.Backend
	if *cacheDir != "" {
		backend, err = repository.NewDirBackend(*cacheDir)
		if err != nil {
			log.Fatalf("opening cachedir: %v", err)
		}
	}

	node, err := core.NewNode(core.NodeConfig{
		Host:        name,
		Shards:      set,
		Backend:     backend,
		SyncPeriod:  *syncPeriod,
		Concurrency: *concurrency,
	})
	if err != nil {
		log.Fatalf("starting node: %v", err)
	}
	node.ActiveData.AddCallback(core.EventHandler{
		OnDataCopy: func(e core.Event) {
			log.Printf("copied %s (attr %s, %d bytes)", e.Data.Name, e.Attr.Name, e.Data.Size)
		},
		OnDataDelete: func(e core.Event) {
			log.Printf("deleted %s (attr %s)", e.Data.Name, e.Attr.Name)
		},
	})
	node.Start()
	defer node.Stop()
	log.Printf("reservoir host %q attached to %s, pulling every %v", name, *service, *syncPeriod)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Println("leaving the network")
}
