// Command bitdew is the command-line tool of the BitDew runtime (the
// "Command-line Tool" box of the paper's Figure 1): put and get files in
// the data space, attach attributes, and inspect the system.
//
// Usage:
//
//	bitdew -service HOST:PORT put <file> [attr-definition]
//	bitdew -service HOST:PORT get <name> <outfile>
//	bitdew -service HOST:PORT ls
//	bitdew -service HOST:PORT schedule <name> <attr-definition>
//	bitdew -service HOST:PORT delete <name>
//	bitdew -service HOST:PORT status
//	bitdew -service HOST:PORT,HOST:PORT where <name>
//	bitdew -service HOST:PORT ring
//	bitdew -service HOST:PORT,HOST:PORT ring add <newaddr>
//	bitdew -service HOST:PORT,HOST:PORT ring drain
//	bitdew -service HOST:PORT,HOST:PORT repl [wait]
//
// Example:
//
//	bitdew put genome.tar.gz 'attr Genebase = { replica = -1, oob = bittorrent }'
//
// Against a sharded service plane, pass every shard's address to -service
// as a comma-separated list in membership order (the same list the shards
// were started with): data then route to their home shards exactly as the
// runtime does. `where` prints a datum's home shard, `ring` prints the
// membership a shard has committed, `repl` every shard's ownership state.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"bitdew/internal/attr"
	"bitdew/internal/core"
	"bitdew/internal/repl"
	"bitdew/internal/rpc"
	"bitdew/internal/runtime"
)

func main() {
	service := flag.String("service", "127.0.0.1:4567", "service rpc address(es); comma-separate a sharded plane's membership")
	host := flag.String("host", "bitdew-cli", "client host identity")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}

	addrs := core.ParseMembership(*service)
	if len(addrs) == 0 {
		log.Fatalf("-service %q names no address", *service)
	}
	if args[0] == "ring" {
		cmdRing(addrs, args[1:])
		return
	}
	if args[0] == "repl" {
		cmdRepl(addrs, args[1:])
		return
	}

	set, err := core.ConnectSharded(addrs)
	if err != nil {
		log.Fatalf("connecting to %s: %v", *service, err)
	}
	defer set.Close()
	node, err := core.NewNode(core.NodeConfig{Host: *host, Shards: set})
	if err != nil {
		log.Fatal(err)
	}
	node.SetClientOnly(true)

	switch args[0] {
	case "put":
		cmdPut(node, args[1:])
	case "get":
		cmdGet(node, args[1:])
	case "ls":
		cmdLs(node)
	case "schedule":
		cmdSchedule(node, args[1:])
	case "delete":
		cmdDelete(node, args[1:])
	case "status":
		cmdStatus(node)
	case "where":
		cmdWhere(node, set, addrs, args[1:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: bitdew [-service addr[,addr...]] put|get|ls|schedule|delete|status|where|ring|repl ...")
	os.Exit(2)
}

// cmdWhere prints the home shard of a datum — the one service container
// holding its catalog entry, locators, placements and permanent copy.
func cmdWhere(node *core.Node, set *core.ShardSet, addrs []string, args []string) {
	if len(args) != 1 {
		log.Fatal("where: want <name>")
	}
	d, err := node.BitDew.SearchDataFirst(args[0])
	if err != nil {
		log.Fatal(err)
	}
	shard := set.ShardOf(d.UID)
	fmt.Printf("%s %s shard %d of %d %s\n", d.Name, d.UID, shard, set.N(), addrs[shard])
}

// cmdRing inspects or reshapes the plane's membership: bare `ring` prints
// the table one shard serves; `ring add <addr>` grows the plane onto an
// already-started shard; `ring drain` retires the last shard.
func cmdRing(addrs []string, args []string) {
	switch {
	case len(args) == 0:
		printRing(addrs[0])
	case args[0] == "add" && len(args) == 2:
		cmdRingAdd(addrs, args[1])
	case args[0] == "drain" && len(args) == 1:
		cmdRingDrain(addrs)
	default:
		log.Fatal("ring: want no argument, `add <addr>`, or `drain`")
	}
}

// printRing prints the membership the shard at addr has committed: epoch
// and shard count from its ownership status, addresses from its ring table.
func printRing(addr string) {
	table := fetchRing(addr)
	st, err := shardStatus(addr)
	if err != nil {
		log.Fatalf("status of %s: %v", addr, err)
	}
	staging := ""
	if st.Staging {
		staging = "  (staging a reshape)"
	}
	fmt.Printf("epoch %d  %d shards%s\n", st.Epoch, st.Shards, staging)
	for i, a := range table.Addrs {
		marker := " "
		if i == table.Self {
			marker = "*"
		}
		fmt.Printf("%s shard %d  %s\n", marker, i, a)
	}
}

func fetchRing(addr string) runtime.Membership {
	c, err := rpc.DialAuto(addr, rpc.WithCallTimeout(10*time.Second))
	if err != nil {
		log.Fatalf("connecting to %s: %v", addr, err)
	}
	defer c.Close()
	table, err := repl.Members(c)
	if err != nil {
		log.Fatalf("membership of %s: %v (is it part of a sharded plane?)", addr, err)
	}
	return table
}

// shardStatus is the one reader of a shard's ownership state: membership
// epoch and shard count, served ranges with their claims, ship targets with
// their acks, and whether a reshape is staged.
func shardStatus(addr string) (repl.StatusReply, error) {
	c, err := rpc.Dial(addr, rpc.WithCallTimeout(5*time.Second))
	if err != nil {
		return repl.StatusReply{}, err
	}
	defer c.Close()
	return repl.NewClient(c).Status()
}

// ringOpTimeout bounds each reshape protocol call. Staging streams every
// moving row and its content, so the budget is generous.
const ringOpTimeout = 10 * time.Minute

// ringClients opens one reshape-protocol connection per shard address.
func ringClients(addrs []string) []*repl.Client {
	clients := make([]*repl.Client, len(addrs))
	for i, a := range addrs {
		clients[i] = repl.NewClient(rpc.DialAutoLazy(a, rpc.WithCallTimeout(ringOpTimeout)))
	}
	return clients
}

// cmdRingAdd grows the plane by one shard under live traffic. The new
// shard must already be running, started as shard N of the grown list:
//
//	bitdew-service -addr <newaddr> -shard-id N -peers <cur...,newaddr>
//
// repl.Grow makes it a follower of every current shard's moving arcs, cuts
// ownership over, and commits the bumped epoch everywhere — clients follow
// through their membership polling; no restart anywhere.
func cmdRingAdd(addrs []string, newAddr string) {
	table := fetchRing(addrs[0])
	cur := table.Addrs
	for _, a := range cur {
		if a == newAddr {
			log.Fatalf("ring add: %s is already shard of the plane", newAddr)
		}
	}
	newAddrs := append(append([]string(nil), cur...), newAddr)
	epoch := table.Epoch + 1
	committed, err := repl.Grow(ringClients(newAddrs), newAddrs, epoch)
	if !committed {
		log.Fatalf("ring add: %v\n(the joining shard must already run as: bitdew-service -addr %s -shard-id %d -peers %s)",
			err, newAddr, len(cur), strings.Join(newAddrs, ","))
	}
	fmt.Printf("added shard %d (%s) at epoch %d\n", len(cur), newAddr, epoch)
	printRing(addrs[0])
	if err != nil {
		log.Fatalf("ring add: %v", err)
	}
}

// cmdRingDrain retires the plane's last shard through repl.Drain: its
// rows stream to the survivors, ownership cuts over, and the shrunk
// membership commits. The drained process is NOT stopped — it keeps
// answering stale reads with retained content and points old clients at the
// survivors — stop it once clients have converged.
func cmdRingDrain(addrs []string) {
	table := fetchRing(addrs[0])
	cur := table.Addrs
	last := len(cur) - 1
	epoch := table.Epoch + 1
	committed, err := repl.Drain(ringClients(cur), cur[:last], epoch)
	if !committed {
		log.Fatalf("ring drain: %v", err)
	}
	fmt.Printf("drained shard %d (%s) at epoch %d; stop its process once clients converge\n", last, cur[last], epoch)
	printRing(addrs[0])
	if err != nil {
		log.Fatalf("ring drain: %v", err)
	}
}

// cmdRepl prints each shard's ownership status — membership epoch, owned
// ranges and their claims, stream position, and how far each ship target
// has acknowledged. `repl wait`
// blocks until every live shard's outbound streams are fully acknowledged
// with no outstanding content pulls: the convergence barrier scripts use
// before killing a shard (the CI failover smoke relies on it).
func cmdRepl(addrs []string, args []string) {
	wait := len(args) == 1 && args[0] == "wait"
	if len(args) > 1 || (len(args) == 1 && !wait) {
		log.Fatal("repl: want no argument, or `wait`")
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		statuses := make([]*repl.StatusReply, len(addrs))
		for i, addr := range addrs {
			// An unreachable shard stays nil: printed as down below.
			if rep, err := shardStatus(addr); err == nil {
				statuses[i] = &rep
			}
		}
		converged := true
		for _, st := range statuses {
			if st == nil {
				continue // a dead shard cannot lag; its successor serves
			}
			for _, tgt := range st.Targets {
				if !tgt.Synced || tgt.Acked < st.Seq || tgt.PendingContent > 0 {
					converged = false
				}
			}
		}
		if !wait || converged {
			for i, st := range statuses {
				if st == nil {
					fmt.Printf("shard %d  %s  down\n", i, addrs[i])
					continue
				}
				ranges := make([]string, 0, len(st.Serving))
				for r, epoch := range st.Serving {
					ranges = append(ranges, fmt.Sprintf("%d:%d", r, epoch))
				}
				sort.Strings(ranges)
				staging := ""
				if st.Staging {
					staging = "  staging"
				}
				fmt.Printf("shard %d  %s  epoch %d  stream %d:%d  serves [%s]%s\n",
					i, addrs[i], st.Epoch, st.Stream, st.Seq, strings.Join(ranges, " "), staging)
				for _, tgt := range st.Targets {
					state := "lagging"
					if tgt.Synced && tgt.Acked >= st.Seq && tgt.PendingContent == 0 {
						state = "synced"
					}
					fmt.Printf("  -> %s  acked %d  pending-content %d  %s\n",
						tgt.Addr, tgt.Acked, tgt.PendingContent, state)
				}
			}
			if !converged {
				os.Exit(1)
			}
			return
		}
		if time.Now().After(deadline) {
			log.Fatal("repl wait: streams still lagging after 60s")
		}
		time.Sleep(200 * time.Millisecond)
	}
}

func cmdPut(node *core.Node, args []string) {
	if len(args) < 1 {
		log.Fatal("put: missing file")
	}
	d, err := node.BitDew.CreateData(filepath.Base(args[0]))
	if err != nil {
		log.Fatal(err)
	}
	if err := node.BitDew.PutFile(d, args[0]); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("put %s\n", d)
	if len(args) >= 2 {
		a, err := attr.Parse(args[1])
		if err != nil {
			log.Fatalf("attribute: %v", err)
		}
		if err := node.ActiveData.Schedule(*d, a); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("scheduled with %s\n", a)
	}
}

func cmdGet(node *core.Node, args []string) {
	if len(args) != 2 {
		log.Fatal("get: want <name> <outfile>")
	}
	d, err := node.BitDew.SearchDataFirst(args[0])
	if err != nil {
		log.Fatal(err)
	}
	if err := node.BitDew.GetFile(d, args[1]); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("got %s -> %s (%d bytes)\n", d.Name, args[1], d.Size)
}

func cmdLs(node *core.Node) {
	ds, err := node.BitDew.AllData()
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range ds {
		fmt.Printf("%-36s %-24s %12d  %s\n", d.UID, d.Name, d.Size, d.Checksum)
	}
	fmt.Printf("%d data in the space\n", len(ds))
}

func cmdSchedule(node *core.Node, args []string) {
	if len(args) != 2 {
		log.Fatal("schedule: want <name> <attr-definition>")
	}
	d, err := node.BitDew.SearchDataFirst(args[0])
	if err != nil {
		log.Fatal(err)
	}
	a, err := attr.Parse(args[1])
	if err != nil {
		log.Fatal(err)
	}
	if err := node.ActiveData.Schedule(d, a); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scheduled %s with %s\n", d.Name, a)
}

func cmdDelete(node *core.Node, args []string) {
	if len(args) != 1 {
		log.Fatal("delete: want <name>")
	}
	d, err := node.BitDew.SearchDataFirst(args[0])
	if err != nil {
		log.Fatal(err)
	}
	if err := node.BitDew.DeleteData(d); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deleted %s\n", d.Name)
}

func cmdStatus(node *core.Node) {
	ds, err := node.BitDew.AllData()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("data space: %d data\n", len(ds))
	var total int64
	for _, d := range ds {
		total += d.Size
	}
	fmt.Printf("total content: %d bytes\n", total)
}
