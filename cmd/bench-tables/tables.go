package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"bitdew/internal/catalog"
	"bitdew/internal/data"
	"bitdew/internal/db"
	"bitdew/internal/dht"
	"bitdew/internal/rpc"
)

// sessionStore wraps an embedded store, paying a small per-operation
// session-setup cost — the work a JDO/JDBC layer does per call without
// DBCP (statement preparation, session objects). With DBCP that cost is
// amortised; without it is paid on every operation.
type sessionStore struct {
	inner db.Store
}

func (s sessionStore) session() {
	// Allocate and initialise a session-sized scratch structure.
	buf := make([]byte, 4096)
	for i := range buf {
		buf[i] = byte(i)
	}
	_ = buf
}

func (s sessionStore) Apply(b []db.Mutation) error     { s.session(); return s.inner.Apply(b) }
func (s sessionStore) Put(t, k string, v []byte) error { return db.ApplyRow(s, 'P', t, k, v) }
func (s sessionStore) Delete(t, k string) error        { return db.ApplyRow(s, 'D', t, k, nil) }
func (s sessionStore) Get(t, k string) ([]byte, bool, error) {
	s.session()
	return s.inner.Get(t, k)
}
func (s sessionStore) Keys(t string) ([]string, error) { s.session(); return s.inner.Keys(t) }
func (s sessionStore) Scan(t string, fn func(string, []byte) bool) error {
	s.session()
	return s.inner.Scan(t, fn)
}
func (s sessionStore) Close() error { return s.inner.Close() }

// measureCreates runs concurrent data-slot creation loops against a
// catalog client for d, returning thousands of creations per second.
func measureCreates(client *catalog.Client, d time.Duration, workers int) float64 {
	var total int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := int64(0)
			for time.Now().Before(deadline) {
				dd := data.New("bench-slot")
				if err := client.Register(*dd); err != nil {
					break
				}
				n++
			}
			mu.Lock()
			total += n
			mu.Unlock()
		}()
	}
	wg.Wait()
	return float64(total) / d.Seconds() / 1000
}

// table2 reproduces Table 2: creation rate across three transports
// (local call, rpc on loopback, rpc with injected remote latency) and two
// engine styles (networked "MySQL role" vs embedded "HsqlDB role"), each
// with and without DBCP. The networked engine's DBCP arm is one multiplexed
// connection shared by every worker; without DBCP it dials one per
// operation.
func table2(quick bool) {
	dur := 1 * time.Second
	if quick {
		dur = 250 * time.Millisecond
	}
	const workers = 8

	type engine struct {
		name  string
		store func() (db.Store, func())
	}
	engines := []engine{
		{"MySQL-like/unpooled", func() (db.Store, func()) {
			backing := db.NewRowStore()
			srv, err := db.NewServer(backing, "127.0.0.1:0")
			if err != nil {
				panic(err)
			}
			return db.NewUnpooledStore(srv.Addr()), func() { srv.Close() }
		}},
		{"MySQL-like/DBCP", func() (db.Store, func()) {
			backing := db.NewRowStore()
			srv, err := db.NewServer(backing, "127.0.0.1:0")
			if err != nil {
				panic(err)
			}
			c, err := db.Dial(srv.Addr())
			if err != nil {
				panic(err)
			}
			return c, func() { c.Close(); srv.Close() }
		}},
		{"HsqlDB-like/unpooled", func() (db.Store, func()) {
			return sessionStore{inner: db.NewRowStore()}, func() {}
		}},
		{"HsqlDB-like/DBCP", func() (db.Store, func()) {
			return db.NewRowStore(), func() {}
		}},
	}

	type transport struct {
		name   string
		client func(m *rpc.Mux) (rpc.Client, func())
	}
	transports := []transport{
		{"local", func(m *rpc.Mux) (rpc.Client, func()) {
			c := rpc.NewLocalClient(m, 0)
			return c, func() { c.Close() }
		}},
		{"RMI local", func(m *rpc.Mux) (rpc.Client, func()) {
			srv, err := rpc.Listen("127.0.0.1:0", m)
			if err != nil {
				panic(err)
			}
			//vet:ignore deadlines Table 2 measures the bare transport against an in-process server; a per-call deadline timer would perturb the recorded baselines
			c, err := rpc.Dial(srv.Addr())
			if err != nil {
				panic(err)
			}
			return c, func() { c.Close(); srv.Close() }
		}},
		{"RMI remote", func(m *rpc.Mux) (rpc.Client, func()) {
			srv, err := rpc.Listen("127.0.0.1:0", m, rpc.WithServerLatency(200*time.Microsecond))
			if err != nil {
				panic(err)
			}
			//vet:ignore deadlines Table 2 measures the bare transport against an in-process server; a per-call deadline timer would perturb the recorded baselines
			c, err := rpc.Dial(srv.Addr())
			if err != nil {
				panic(err)
			}
			return c, func() { c.Close(); srv.Close() }
		}},
	}

	fmt.Printf("%-12s", "")
	for _, e := range engines {
		fmt.Printf("  %-22s", e.name)
	}
	fmt.Println()
	for _, tr := range transports {
		fmt.Printf("%-12s", tr.name)
		for _, e := range engines {
			store, closeStore := e.store()
			svc := catalog.NewService(store)
			mux := rpc.NewMux()
			svc.Mount(mux)
			client, closeClient := tr.client(mux)
			rate := measureCreates(catalog.NewClient(client), dur, workers)
			closeClient()
			closeStore()
			fmt.Printf("  %-22.2f", rate)
		}
		fmt.Println()
	}
	fmt.Println("\n(thousands of data-slot creations per second; paper Table 2 shape:")
	fmt.Println(" embedded engine beats networked one, DBCP rescues the networked")
	fmt.Println(" engine, and transports order local > RMI local > RMI remote)")
}

// table3 reproduces Table 3: 50 nodes each publish P (dataID, hostID)
// pairs into the Distributed Data Catalog (Chord DHT with wide-area hop
// latency) and, for comparison, into the centralized DC.
func table3(quick bool) {
	nodes, pairs := 50, 500
	hop := 200 * time.Microsecond
	if quick {
		nodes, pairs = 20, 50
	}

	// DDC: build the ring, then measure publish throughput per node.
	ring := dht.NewRing(dht.WithSeed(1), dht.WithHopDelay(hop))
	for i := 0; i < nodes; i++ {
		if _, err := ring.AddNode(fmt.Sprintf("res%03d", i)); err != nil {
			panic(err)
		}
	}
	ring.StabilizeFully()
	ddcRates := measurePublish(nodes, pairs, func(node int, k string) error {
		return ring.Put(k, fmt.Sprintf("host%03d", node))
	})

	// DC: the centralized catalog behind loopback rpc.
	svc := catalog.NewService(db.NewRowStore())
	mux := rpc.NewMux()
	svc.Mount(mux)
	srv, err := rpc.Listen("127.0.0.1:0", mux)
	if err != nil {
		panic(err)
	}
	defer srv.Close()
	//vet:ignore deadlines Table 3's DC column measures the bare loopback transport; a per-call deadline timer would perturb the recorded baselines
	conn, err := rpc.Dial(srv.Addr())
	if err != nil {
		panic(err)
	}
	defer conn.Close()
	dcClient := catalog.NewClient(conn)
	dcRates := measurePublish(nodes, pairs, func(node int, k string) error {
		return dcClient.Register(data.Data{UID: data.UID(k), Name: "replica"})
	})

	fmt.Printf("%-14s %10s %10s %10s %10s\n", "", "Min", "Max", "Sd", "Mean")
	min, max, sd, mean := stats(ddcRates)
	fmt.Printf("%-14s %10.2f %10.2f %10.2f %10.2f\n", "publish/DDC", min, max, sd, mean)
	dmin, dmax, dsd, dmean := stats(dcRates)
	fmt.Printf("%-14s %10.2f %10.2f %10.2f %10.2f\n", "publish/DC", dmin, dmax, dsd, dmean)
	fmt.Printf("\n(pairs per second per node; paper: DDC ~15x slower than DC,\n")
	fmt.Printf(" measured ratio here: %.1fx)\n", dmean/mean)
}

// measurePublish runs `nodes` concurrent publishers of `pairs` entries and
// returns each node's achieved rate (pairs/sec).
func measurePublish(nodes, pairs int, publish func(node int, key string) error) []float64 {
	rates := make([]float64, nodes)
	var wg sync.WaitGroup
	for n := 0; n < nodes; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			start := time.Now()
			for p := 0; p < pairs; p++ {
				key := fmt.Sprintf("data-%03d-%05d", n, p)
				if err := publish(n, key); err != nil {
					return
				}
			}
			rates[n] = float64(pairs) / time.Since(start).Seconds()
		}(n)
	}
	wg.Wait()
	return rates
}

func stats(xs []float64) (min, max, sd, mean float64) {
	if len(xs) == 0 {
		return
	}
	min, max = xs[0], xs[0]
	for _, x := range xs {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		sd += (x - mean) * (x - mean)
	}
	sd = math.Sqrt(sd / float64(len(xs)))
	return
}
