// Command bitdew-stress is the sustained-load harness: it simulates many
// concurrent clients issuing a configurable mix of put/fetch/schedule/search
// operations against a D* service plane — the paper's evaluation conditions
// (§5, Fig. 3: many nodes hammering the services at once) as steady-state
// traffic rather than a single wave. It reports throughput and p50/p99/p999
// latency per op class and writes a machine-readable BENCH_*.json so the
// performance trajectory is tracked across changes.
//
// Against an in-process plane (default: 2 shards booted just for the run):
//
//	bitdew-stress -shards 2 -clients 64 -duration 10s -warmup 2s
//
// Against a real deployed plane (same comma-separated membership list the
// shards were started with):
//
//	bitdew-stress -service 127.0.0.1:4601,127.0.0.1:4602 -clients 256
//
// Arrival is closed-loop by default (each client issues its next op as soon
// as the previous returns); -open -rate 5000 switches to open-loop arrival
// at 5000 ops/sec with latency measured from each op's scheduled arrival,
// so queueing delay under overload is charged to the system instead of
// being silently omitted.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"bitdew/internal/core"
	"bitdew/internal/loadgen"
	"bitdew/internal/testbed"
)

// options are the CLI flags, separated from main so tests can drive the
// same configuration path the binary runs.
type options struct {
	service      string
	shards       int
	clients      int
	conns        int
	duration     time.Duration
	warmup       time.Duration
	mix          string
	open         bool
	rate         float64
	payload      int
	preload      int
	slots        int
	seed         int64
	out          string
	failOnErrors bool
}

func main() {
	var o options
	flag.StringVar(&o.service, "service", "", "comma-separated shard addresses of a running plane (empty: boot an in-process plane)")
	flag.IntVar(&o.shards, "shards", 2, "shards of the in-process plane (ignored with -service)")
	flag.IntVar(&o.clients, "clients", 64, "concurrent simulated clients")
	flag.IntVar(&o.conns, "conns", 8, "shared service connections the clients multiplex over")
	flag.DurationVar(&o.duration, "duration", 10*time.Second, "measured window")
	flag.DurationVar(&o.warmup, "warmup", 2*time.Second, "unmeasured warmup before the window")
	flag.StringVar(&o.mix, "mix", loadgen.DefaultMix().String(), "op mix weights")
	flag.BoolVar(&o.open, "open", false, "open-loop arrival (fixed schedule) instead of closed-loop")
	flag.Float64Var(&o.rate, "rate", 0, "open-loop arrival rate in ops/sec across all clients")
	flag.IntVar(&o.payload, "payload", 256, "payload bytes per put / preloaded datum")
	flag.IntVar(&o.preload, "preload", 128, "data preloaded as fetch/schedule/search targets")
	flag.IntVar(&o.slots, "slots", 16, "per-client ring of put target slots")
	flag.Int64Var(&o.seed, "seed", 1, "rng seed (op sequences are reproducible per seed)")
	flag.StringVar(&o.out, "out", "BENCH_stress.json", "report file (empty: don't write)")
	flag.BoolVar(&o.failOnErrors, "fail-on-errors", false, "exit nonzero when any op errored or throughput is zero")
	flag.Parse()

	rep, err := run(o)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rep.Summary())
	if o.out != "" {
		if err := rep.WriteJSON(o.out); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", o.out)
	}
	if o.failOnErrors && (rep.Errors > 0 || rep.Throughput <= 0) {
		fmt.Fprintf(os.Stderr, "bitdew-stress: %d errors, %.0f ops/sec: failing as asked\n", rep.Errors, rep.Throughput)
		os.Exit(1)
	}
}

// run executes the configured load run: against the addressed plane, or
// against a fresh in-process one.
func run(o options) (*loadgen.Report, error) {
	mix, err := loadgen.ParseMix(o.mix)
	if err != nil {
		return nil, err
	}
	load := loadgen.Config{
		Clients:  o.clients,
		Duration: o.duration,
		Warmup:   o.warmup,
		Mix:      mix,
		OpenLoop: o.open,
		Rate:     o.rate,
		Seed:     o.seed,
	}
	plane := loadgen.PlaneConfig{
		Conns:          o.conns,
		PayloadBytes:   o.payload,
		Preload:        o.preload,
		SlotsPerClient: o.slots,
	}

	if o.service == "" {
		return testbed.RunStress(testbed.StressConfig{
			Shards: o.shards,
			Load:   load,
			Plane:  plane,
		})
	}

	plane.Addrs = core.ParseMembership(o.service)
	clients, err := loadgen.ConnectPlane(plane)
	if err != nil {
		return nil, err
	}
	defer clients.Close()
	res, err := loadgen.Run(load, clients.Factory())
	if err != nil {
		return nil, err
	}
	return loadgen.BuildReport("stress", res, len(plane.Addrs), clients.Conns(), clients.PayloadBytes()), nil
}
