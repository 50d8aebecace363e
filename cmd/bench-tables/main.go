// Command bench-tables regenerates every table and figure of the paper's
// evaluation section (see DESIGN.md's per-experiment index):
//
//	bench-tables -table 2        data-slot creation rates (real components)
//	bench-tables -table 3        DDC vs DC publish rates (real DHT)
//	bench-tables -fig 3a         FTP vs BitTorrent distribution (simgrid)
//	bench-tables -fig 3b         BitDew overhead over FTP, percent
//	bench-tables -fig 3c         BitDew overhead over FTP, seconds
//	bench-tables -fig 4          DSL-Lab fault-tolerance Gantt chart
//	bench-tables -fig 5          BLAST M/W total time vs workers
//	bench-tables -fig 6          BLAST breakdown per cluster
//	bench-tables -all            everything
//
// Tables 2 and 3 exercise the real runtime components (rpc transports,
// database engines served over rpc, Chord DHT); the figures run on the
// simulated testbeds. -quick shrinks measurement durations for CI runs.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	table := flag.String("table", "", "regenerate a table: 2 | 3")
	fig := flag.String("fig", "", "regenerate a figure: 3a | 3b | 3c | 4 | 5 | 6")
	all := flag.Bool("all", false, "regenerate everything")
	quick := flag.Bool("quick", false, "shorter measurement durations")
	flag.Parse()

	ran := false
	run := func(name string, fn func(quick bool)) {
		fmt.Printf("\n================ %s ================\n", name)
		fn(*quick)
		ran = true
	}

	if *all || *table == "2" {
		run("Table 2: data slot creation (thousands dc/sec)", table2)
	}
	if *all || *table == "3" {
		run("Table 3: publish rate, DDC (DHT) vs DC (pairs/sec)", table3)
	}
	if *all || *fig == "3a" {
		run("Figure 3a: distribution completion time, FTP vs BitTorrent (s)", fig3a)
	}
	if *all || *fig == "3b" {
		run("Figure 3b: BitDew overhead over FTP (percent)", fig3b)
	}
	if *all || *fig == "3c" {
		run("Figure 3c: BitDew overhead over FTP (seconds)", fig3c)
	}
	if *all || *fig == "4" {
		run("Figure 4: DSL-Lab fault-tolerance scenario", fig4)
	}
	if *all || *fig == "5" {
		run("Figure 5: BLAST M/W total execution time (s)", fig5)
	}
	if *all || *fig == "6" {
		run("Figure 6: BLAST breakdown by cluster (s)", fig6)
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}
