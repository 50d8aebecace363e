package loadgen

import (
	"fmt"
	"math/rand"

	"bitdew/internal/attr"
	"bitdew/internal/core"
	"bitdew/internal/data"
	"bitdew/internal/repository"
	"bitdew/internal/transfer"
)

// PlaneConfig parameterises a load run against a real (optionally sharded)
// D* service plane.
type PlaneConfig struct {
	// Addrs is the plane's membership list (core.ConnectSharded order).
	Addrs []string
	// Conns is the number of shared service connections the simulated
	// clients multiplex over — the million-client traffic model: each
	// connection is pipelined and batch-capable, so thousands of clients
	// ride a bounded connection pool exactly as a real deployment would
	// front the plane with per-pool Comms (default 8).
	Conns int
	// PayloadBytes sizes put payloads and preloaded content (default 256).
	PayloadBytes int
	// Preload is the number of data created before the clock starts, the
	// targets of fetch/schedule/search traffic (default 128).
	Preload int
	// SlotsPerClient is each client's ring of put targets: puts cycle
	// through the ring, so repository and catalog state stay bounded no
	// matter how long the run (default 16).
	SlotsPerClient int
	// Host is the client identity prefix towards the services.
	Host string
}

func (c *PlaneConfig) defaults() {
	if c.Conns <= 0 {
		c.Conns = 8
	}
	if c.PayloadBytes <= 0 {
		c.PayloadBytes = 256
	}
	if c.Preload <= 0 {
		c.Preload = 128
	}
	if c.SlotsPerClient <= 0 {
		c.SlotsPerClient = 16
	}
	if c.Host == "" {
		c.Host = "stress"
	}
}

// Plane is the shared fixture of a load run: the connection pool, the
// per-connection API instances and the preloaded target data. Build it
// once, hand its Factory to Run, Close it after.
type Plane struct {
	cfg   PlaneConfig
	sets  []*core.ShardSet
	bds   []*core.BitDew
	ads   []*core.ActiveData
	pre   []data.Data
	names []string
}

// ConnectPlane dials the plane and preloads the fetch/schedule/search
// targets (Preload data of PayloadBytes each, named stress-pre-NNNN).
func ConnectPlane(cfg PlaneConfig) (*Plane, error) {
	cfg.defaults()
	if len(cfg.Addrs) == 0 {
		return nil, fmt.Errorf("loadgen: plane needs at least one service address")
	}
	p := &Plane{cfg: cfg}
	for i := 0; i < cfg.Conns; i++ {
		set, err := core.ConnectSharded(cfg.Addrs)
		if err != nil {
			p.Close()
			return nil, fmt.Errorf("loadgen: conn %d: %w", i, err)
		}
		p.sets = append(p.sets, set)
		backend := repository.NewMemBackend()
		engine := transfer.NewEngineRouted(backend, func(uid data.UID) *transfer.Client {
			return set.For(uid).DT
		}, fmt.Sprintf("%s-c%02d", cfg.Host, i), 64)
		p.bds = append(p.bds, core.NewBitDewSharded(set, backend, engine, cfg.Host))
		p.ads = append(p.ads, core.NewActiveDataSharded(set))
	}

	// Preload the shared targets through the first connection.
	names := make([]string, cfg.Preload)
	contents := make([][]byte, cfg.Preload)
	rng := rand.New(rand.NewSource(42))
	for i := range names {
		names[i] = fmt.Sprintf("stress-pre-%04d", i)
		contents[i] = make([]byte, cfg.PayloadBytes)
		rng.Read(contents[i])
	}
	ds, err := p.bds[0].CreateDataBatch(names)
	if err != nil {
		p.Close()
		return nil, fmt.Errorf("loadgen: preload: %w", err)
	}
	if err := p.bds[0].PutAll(ds, contents); err != nil {
		p.Close()
		return nil, fmt.Errorf("loadgen: preload: %w", err)
	}
	p.pre = make([]data.Data, len(ds))
	for i, d := range ds {
		p.pre[i] = *d
	}
	p.names = names
	return p, nil
}

// Factory returns the per-client Ops builder: each client shares one of the
// pooled connections (round-robin) and owns a private ring of put slots.
func (p *Plane) Factory() Factory {
	return func(client int) (Ops, error) {
		conn := client % len(p.bds)
		ops := &planeOps{
			plane:   p,
			bd:      p.bds[conn],
			ad:      p.ads[conn],
			payload: make([]byte, p.cfg.PayloadBytes),
		}
		names := make([]string, p.cfg.SlotsPerClient)
		for i := range names {
			names[i] = fmt.Sprintf("%s-%04d-s%02d", p.cfg.Host, client, i)
		}
		slots, err := ops.bd.CreateDataBatch(names)
		if err != nil {
			return nil, fmt.Errorf("creating put slots: %w", err)
		}
		ops.slots = slots
		return ops, nil
	}
}

// Addrs returns the membership list the plane was connected with.
func (p *Plane) Addrs() []string { return p.cfg.Addrs }

// Conns returns the size of the shared connection pool.
func (p *Plane) Conns() int { return len(p.bds) }

// PayloadBytes returns the effective payload size (after defaulting).
func (p *Plane) PayloadBytes() int { return p.cfg.PayloadBytes }

// RoundTrips sums the request frames sent over the connection pool.
func (p *Plane) RoundTrips() uint64 {
	var total uint64
	for _, s := range p.sets {
		total += s.RoundTrips()
	}
	return total
}

// Close releases the connection pool.
func (p *Plane) Close() error {
	var first error
	for _, s := range p.sets {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// planeOps is one simulated client. The APIs it drives are themselves safe
// for concurrent use, so sharing them across the connection's clients is
// fine; the slot ring and payload buffer are private.
type planeOps struct {
	plane   *Plane
	bd      *core.BitDew
	ad      *core.ActiveData
	slots   []*data.Data
	next    int
	payload []byte
}

// scheduleOrderAttr is the attribute every schedule op submits: one live
// replica, fault-tolerant, moved over HTTP — the wave profile of the
// BLAST-style workloads.
var scheduleOrderAttr = attr.Attribute{Name: "stress", Replica: 1, FaultTolerant: true, Protocol: "http"}

// Do issues one operation of the given class.
func (o *planeOps) Do(kind OpKind, r *rand.Rand) error {
	switch kind {
	case OpPut:
		// Refill the next slot of the private ring with fresh content: a
		// catalog re-register, a repository upload, a locator publish.
		slot := o.slots[o.next%len(o.slots)]
		o.next++
		r.Read(o.payload)
		return o.bd.Put(slot, o.payload)
	case OpFetch:
		// Download a random preloaded datum: locator lookup (cached after
		// the first hit, healing when stale) plus an out-of-band transfer.
		d := o.plane.pre[r.Intn(len(o.plane.pre))]
		_, err := o.bd.GetBytes(d)
		return err
	case OpSchedule:
		// Submit a schedule order for a random preloaded datum to its home
		// shard's Data Scheduler.
		d := o.plane.pre[r.Intn(len(o.plane.pre))]
		return o.ad.Schedule(d, scheduleOrderAttr)
	case OpSearch:
		// Search the catalog by name — a fan-out scan over every shard.
		name := o.plane.names[r.Intn(len(o.plane.names))]
		found, err := o.bd.SearchData(name)
		if err != nil {
			return err
		}
		if len(found) == 0 {
			return fmt.Errorf("loadgen: search %s: no match", name)
		}
		return nil
	}
	return fmt.Errorf("loadgen: unknown op %v", kind)
}

// Close releases the client (the pooled connection stays open for the
// other clients sharing it; Plane.Close tears it down).
func (o *planeOps) Close() error { return nil }
