// Benchmarks regenerating the paper's evaluation (one benchmark family per
// table and figure; see DESIGN.md's per-experiment index) plus ablations
// for the design choices the paper calls out. Run:
//
//	go test -bench=. -benchmem
package bitdew_test

import (
	"fmt"
	"testing"
	"time"

	"bitdew/internal/attr"
	"bitdew/internal/catalog"
	"bitdew/internal/data"
	"bitdew/internal/db"
	"bitdew/internal/dht"
	"bitdew/internal/protocols/swarm"
	"bitdew/internal/repository"
	"bitdew/internal/rpc"
	"bitdew/internal/scheduler"
	"bitdew/internal/simgrid"
	"bitdew/internal/testbed"
	"bitdew/internal/transfer"
	"bitdew/internal/workload"
)

const mb = 1e6

// ---- Table 2: data-slot creation across transports and engines ----

func catalogOver(b *testing.B, store db.Store, transport string) (*catalog.Client, func()) {
	b.Helper()
	svc := catalog.NewService(store)
	mux := rpc.NewMux()
	svc.Mount(mux)
	switch transport {
	case "local":
		c := rpc.NewLocalClient(mux, 0)
		return catalog.NewClient(c), func() { c.Close() }
	case "tcp":
		srv, err := rpc.Listen("127.0.0.1:0", mux)
		if err != nil {
			b.Fatal(err)
		}
		c, err := rpc.Dial(srv.Addr())
		if err != nil {
			b.Fatal(err)
		}
		return catalog.NewClient(c), func() { c.Close(); srv.Close() }
	case "remote":
		srv, err := rpc.Listen("127.0.0.1:0", mux, rpc.WithServerLatency(200*time.Microsecond))
		if err != nil {
			b.Fatal(err)
		}
		c, err := rpc.Dial(srv.Addr())
		if err != nil {
			b.Fatal(err)
		}
		return catalog.NewClient(c), func() { c.Close(); srv.Close() }
	default:
		b.Fatalf("transport %q", transport)
		return nil, nil
	}
}

func benchCreates(b *testing.B, mkStore func(b *testing.B) (db.Store, func()), transport string) {
	store, closeStore := mkStore(b)
	defer closeStore()
	client, closeClient := catalogOver(b, store, transport)
	defer closeClient()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			d := data.New("bench-slot")
			if err := client.Register(*d); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func embeddedStore(b *testing.B) (db.Store, func()) {
	return db.NewRowStore(), func() {}
}

func networkedDBCPStore(b *testing.B) (db.Store, func()) {
	srv, err := db.NewServer(db.NewRowStore(), "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	c, err := db.Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	return c, func() { c.Close(); srv.Close() }
}

func networkedUnpooledStore(b *testing.B) (db.Store, func()) {
	srv, err := db.NewServer(db.NewRowStore(), "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	return db.NewUnpooledStore(srv.Addr()), func() { srv.Close() }
}

func BenchmarkTable2(b *testing.B) {
	engines := map[string]func(*testing.B) (db.Store, func()){
		"HsqlDBlike":        embeddedStore,
		"MySQLlikeDBCP":     networkedDBCPStore,
		"MySQLlikeUnpooled": networkedUnpooledStore,
	}
	for _, transport := range []string{"local", "tcp", "remote"} {
		for engine, mk := range engines {
			b.Run(transport+"/"+engine, func(b *testing.B) {
				benchCreates(b, mk, transport)
			})
		}
	}
}

// ---- Table 3: DDC (DHT) vs DC publish ----

func BenchmarkTable3DDCPublish(b *testing.B) {
	ring := dht.NewRing(dht.WithSeed(1))
	for i := 0; i < 50; i++ {
		if _, err := ring.AddNode(fmt.Sprintf("res%03d", i)); err != nil {
			b.Fatal(err)
		}
	}
	ring.StabilizeFully()
	ddc := catalog.NewDDC(ring)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ddc.Publish(data.UID(fmt.Sprintf("d%08d", i)), "host"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3DCPublish(b *testing.B) {
	client, closeFn := catalogOver(b, db.NewRowStore(), "tcp")
	defer closeFn()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.Register(data.Data{UID: data.UID(fmt.Sprintf("d%08d", i)), Name: "replica"}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Figures 3a/3b/3c: distribution and overhead (simulated GdX) ----

func BenchmarkFig3aFTP(b *testing.B) {
	p := testbed.GdX()
	for i := 0; i < b.N; i++ {
		r := simgrid.FTPBroadcast(p, 250, 500*mb, nil)
		if r.Completion <= 0 {
			b.Fatal("no completion")
		}
	}
}

func BenchmarkFig3aBitTorrent(b *testing.B) {
	p := testbed.GdX()
	for i := 0; i < b.N; i++ {
		r := simgrid.SwarmBroadcast(p, 250, 500*mb, nil, nil)
		if r.Completion <= 0 {
			b.Fatal("no completion")
		}
	}
}

func BenchmarkFig3bOverhead(b *testing.B) {
	p := testbed.GdX()
	ov := simgrid.DefaultOverhead()
	for i := 0; i < b.N; i++ {
		raw := simgrid.FTPBroadcast(p, 100, 100*mb, nil).Completion
		bd := simgrid.FTPBroadcast(p, 100, 100*mb, ov).Completion
		if bd <= raw {
			b.Fatal("overhead not positive")
		}
	}
}

// ---- Figure 4: fault scenario ----

func BenchmarkFig4FaultScenario(b *testing.B) {
	p := testbed.DSLLab()
	for i := 0; i < b.N; i++ {
		r := simgrid.FaultScenario(p, 4*mb, 5, 5, 20, 1.0)
		if len(r.Events) != 10 {
			b.Fatalf("events = %d", len(r.Events))
		}
	}
}

// ---- Figures 5/6: BLAST master/worker ----

func BenchmarkFig5BlastSweep(b *testing.B) {
	p := testbed.GdX()
	workers := []int{10, 20, 50, 100, 150, 200, 250, 275}
	for i := 0; i < b.N; i++ {
		for _, proto := range []string{"ftp", "bittorrent"} {
			if _, err := simgrid.BlastSweep(p, workers, proto); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFig6BlastBreakdown(b *testing.B) {
	p := testbed.Grid5000()
	for i := 0; i < b.N; i++ {
		for _, proto := range []string{"ftp", "bittorrent"} {
			if _, err := simgrid.BlastRun(p, 400, simgrid.DefaultBlastParams(proto)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ---- Ablations (DESIGN.md) ----

// BenchmarkAblationCatalog compares the lookup paths behind §3.4.1's
// hybrid design: the centralized DC, the DHT-backed DDC, and the hybrid
// (permanent copy from DC, replicas from DDC).
func BenchmarkAblationCatalog(b *testing.B) {
	// The ring pays a per-hop latency so DDC lookups reflect routed
	// wide-area cost, as in Table 3.
	ring := dht.NewRing(dht.WithSeed(3), dht.WithHopDelay(50*time.Microsecond))
	for i := 0; i < 32; i++ {
		ring.AddNode(fmt.Sprintf("n%02d", i))
	}
	ring.StabilizeFully()
	ddc := catalog.NewDDC(ring)
	dc := catalog.NewService(db.NewRowStore())

	const entries = 512
	uids := make([]data.UID, entries)
	for i := range uids {
		uids[i] = data.NewUID()
		dc.Register(data.Data{UID: uids[i], Name: "x"})
		ddc.Publish(uids[i], "owner")
	}
	b.Run("DC", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dc.Get(uids[i%entries]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("DDC", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ddc.Owners(uids[i%entries]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Hybrid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			uid := uids[i%entries]
			if _, err := dc.Get(uid); err != nil {
				b.Fatal(err)
			}
			if _, err := ddc.Owners(uid); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationMonitorPeriod sweeps the receiver-driven monitoring
// heartbeat: the completion-time overhead the control plane inflicts on a
// fixed distribution as the period shrinks (paper §4.3's discussion of
// heartbeats vs the BOINC-like multi-hour periods).
func BenchmarkAblationMonitorPeriod(b *testing.B) {
	p := testbed.GdX()
	for _, period := range []float64{0.1, 0.5, 2, 10} {
		b.Run(fmt.Sprintf("period=%.1fs", period), func(b *testing.B) {
			ov := simgrid.DefaultOverhead()
			ov.MonitorPeriod = period
			var last float64
			for i := 0; i < b.N; i++ {
				last = simgrid.FTPBroadcast(p, 250, 100*mb, ov).Completion
			}
			b.ReportMetric(last, "completion_s")
		})
	}
}

// BenchmarkAblationMaxDataSchedule measures how the Algorithm 1 throttle
// trades per-sync cost against convergence: synchronizations needed for
// one host to absorb 128 data.
func BenchmarkAblationMaxDataSchedule(b *testing.B) {
	for _, maxDS := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("max=%d", maxDS), func(b *testing.B) {
			var rounds int
			for i := 0; i < b.N; i++ {
				s := scheduler.New()
				s.MaxDataSchedule = maxDS
				for j := 0; j < 128; j++ {
					d := data.Data{UID: data.NewUID(), Name: fmt.Sprintf("d%d", j)}
					s.Schedule(d, attr.Attribute{Name: "a", Replica: 1})
				}
				var cache []data.UID
				rounds = 0
				for len(cache) < 128 {
					r := s.Sync("host", cache)
					for _, f := range r.Fetch {
						cache = append(cache, f.Data.UID)
					}
					rounds++
					if rounds > 1000 {
						b.Fatal("did not converge")
					}
				}
			}
			b.ReportMetric(float64(rounds), "syncs_to_converge")
		})
	}
}

// BenchmarkAblationPieceSelection compares rarest-first with random piece
// selection on the real swarm protocol.
func BenchmarkAblationPieceSelection(b *testing.B) {
	content := make([]byte, 256*1024)
	for i := range content {
		content[i] = byte(i * 31)
	}
	for _, random := range []bool{false, true} {
		name := "rarest-first"
		if random {
			name = "random"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tr, err := swarm.NewTracker("127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				backend := repository.NewMemBackend()
				backend.Put("c", content)
				meta := swarm.NewMetainfo("c", content, 16*1024)
				seeder, err := swarm.NewSeeder(backend, meta, tr.Addr(), "127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				leecher, err := swarm.NewLeecher(repository.NewMemBackend(), meta, tr.Addr(), "127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				leecher.RandomPieces = random
				if err := leecher.Download(time.Minute); err != nil {
					b.Fatal(err)
				}
				leecher.Close()
				seeder.Close()
				tr.Close()
			}
		})
	}
}

// ---- Component micro-benchmarks ----

func BenchmarkAttrParse(b *testing.B) {
	src := `attr Genebase = { protocol = "bittorrent", lifetime = Collector, affinity = Sequence, replica = 4, ft = true }`
	for i := 0; i < b.N; i++ {
		if _, err := attr.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDHTLookup(b *testing.B) {
	ring := dht.NewRing(dht.WithSeed(5))
	for i := 0; i < 64; i++ {
		ring.AddNode(fmt.Sprintf("n%02d", i))
	}
	ring.StabilizeFully()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ring.Lookup(fmt.Sprintf("key%d", i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSchedulerSync(b *testing.B) {
	s := scheduler.New()
	for j := 0; j < 200; j++ {
		d := data.Data{UID: data.NewUID(), Name: fmt.Sprintf("d%d", j)}
		s.Schedule(d, attr.Attribute{Name: "a", Replica: 3, FaultTolerant: true})
	}
	// Steady-state host with a full cache.
	var cache []data.UID
	for len(cache) < 24 {
		r := s.Sync("host", cache)
		for _, f := range r.Fetch {
			cache = append(cache, f.Data.UID)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sync("host", cache)
	}
}

func BenchmarkRPCCallLocal(b *testing.B) {
	mux := rpc.NewMux()
	rpc.Register(mux, "echo", "Echo", func(x int) (int, error) { return x + 1, nil })
	c := rpc.NewLocalClient(mux, 0)
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out int
		if err := c.Call("echo", "Echo", i, &out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRPCCallTCP(b *testing.B) {
	mux := rpc.NewMux()
	rpc.Register(mux, "echo", "Echo", func(x int) (int, error) { return x + 1, nil })
	srv, err := rpc.Listen("127.0.0.1:0", mux)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := rpc.Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out int
		if err := c.Call("echo", "Echo", i, &out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransferDownloadHTTP(b *testing.B) {
	f := newBenchTransferFixture(b)
	content := make([]byte, 1*1024*1024)
	d := data.NewFromBytes("bench", content)
	f.backend.Put(string(d.UID), content)
	loc := data.Locator{DataUID: d.UID, Protocol: "http", Host: f.httpAddr, Ref: string(d.UID)}
	engine := transfer.NewEngine(repository.NewMemBackend(), nil, "bench", 4)
	b.SetBytes(int64(len(content)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.Backend().Delete(string(d.UID))
		if err := engine.Download(*d, loc).Wait(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationFailureTimeout sweeps the heartbeat period on the
// Figure 4 scenario (the detector fires after 3 missed heartbeats, so a
// shorter period detects failures sooner at the cost of more control
// traffic); the reported metric is the newcomers' mean waiting time,
// which tracks 3x the period.
func BenchmarkAblationFailureTimeout(b *testing.B) {
	p := testbed.DSLLab()
	for _, period := range []float64{1.5, 1.0, 0.5} {
		b.Run(fmt.Sprintf("heartbeat=%.1fs", period), func(b *testing.B) {
			var meanWait float64
			for i := 0; i < b.N; i++ {
				r := simgrid.FaultScenario(p, 4*mb, 5, 5, 20, period)
				total, n := 0.0, 0
				for _, e := range r.Events[5:] {
					total += e.DownloadStart - e.Arrival
					n++
				}
				if n > 0 {
					meanWait = total / float64(n)
				}
			}
			b.ReportMetric(meanWait, "mean_wait_s")
		})
	}
}

// BenchmarkWorkloadSearch measures the blastn-like kernel's scan rate.
func BenchmarkWorkloadSearch(b *testing.B) {
	base := workload.Genebase(1_000_000, 1)
	q := workload.SampleQueries(base, 1, 300, 0.01, 2)[0]
	b.SetBytes(int64(len(base)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if hits := workload.Search(base, q.Seq, 200); len(hits) == 0 {
			b.Fatal("planted hit missed")
		}
	}
}
