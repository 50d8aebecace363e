package testbed

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"bitdew/internal/attr"
	"bitdew/internal/core"
	"bitdew/internal/data"
	"bitdew/internal/rpc"
	"bitdew/internal/runtime"
)

// This file is the scenario harness every Run* in this package is written
// against: one way to boot a plane, connect a master and workers, put a
// BLAST-like wave, pump the workers, wait for the wave to be distributed —
// and one audit stating the plane's invariants, run after every fault a
// scenario injects and at the end of every scenario, outside every timed
// window. The scenarios keep only their fault steps and their clocks.

// deadline bounds every wait of the harness; it only matters to a run that
// is about to fail.
const deadline = 60 * time.Second

// fixtureConfig describes the plane a scenario runs on.
type fixtureConfig struct {
	// name prefixes the hosts' identities and the waves' data names.
	name             string
	shards, replicas int
	// stateDir makes every shard durable (per-shard subdirectories).
	stateDir string
	// serviceTime, when set, is the capacity model of the scaling
	// experiments: every shard's rpc server handles one frame at a time and
	// holds it for serviceTime.
	serviceTime time.Duration
	// workers is the number of reservoir hosts; waves are scheduled onto
	// them, so a plane without workers only stores its waves.
	workers int
	// payload sizes every datum of every wave (default 256 bytes).
	payload int
	// shared says another writer (the load generator) puts its own data on
	// the plane: the catalog then holds more than the harness put, and rows
	// the harness does not know are not strays.
	shared bool
}

// wave is one BLAST-like batch: data[0] is broadcast to every worker, the
// rest are replica-1 tasks.
type wave struct {
	data     []*data.Data
	contents [][]byte
	start    time.Time
	// placed is set once distributed has observed the wave on the workers;
	// only then does every datum of it owe the audit an owner.
	placed bool
}

// fixture is one booted plane with its client-only master and its workers.
type fixture struct {
	cfg     fixtureConfig
	plane   *runtime.ShardedContainer
	set     *core.ShardSet // the master's view of the plane
	master  *core.Node
	workers []*core.Node
	sets    []*core.ShardSet

	// mu serializes a wave's put phase with the audit, so the audit never
	// sees a half-written wave; it guards waves and their placed flags.
	mu    sync.Mutex
	waves []*wave
	rng   *rand.Rand

	pumped  atomic.Bool // while set, the workers pump
	pumping sync.WaitGroup
	werr    atomic.Pointer[error] // the first error of any worker round
}

// boot starts the plane and connects the master and the workers.
func boot(cfg fixtureConfig) (*fixture, error) {
	cfg.payload = cmp.Or(cfg.payload, 256)
	pcfg := runtime.ShardedConfig{
		Shards:   cfg.shards,
		Replicas: cfg.replicas,
		StateDir: cfg.stateDir,
		// Waves move over HTTP; the other protocol servers only cost boot time.
		DisableFTP:   true,
		DisableSwarm: true,
	}
	if cfg.serviceTime > 0 {
		pcfg.RPCOptions = []rpc.ServerOption{rpc.WithServerLatency(cfg.serviceTime), rpc.WithServeLimit(1)}
	}
	plane, err := runtime.NewShardedContainer(pcfg)
	if err != nil {
		return nil, fmt.Errorf("testbed: %s: %w", cfg.name, err)
	}
	f := &fixture{cfg: cfg, plane: plane, rng: rand.New(rand.NewSource(7))}
	var nodes []*core.Node // the master, then the workers
	for i := 0; i <= cfg.workers; i++ {
		host, concurrency := fmt.Sprintf("%s-w%d", cfg.name, i), 32
		if i == 0 {
			host, concurrency = cfg.name+"-master", 16 // the master only puts
		}
		// Clients learn R and the epoch from the plane's membership table.
		set, err := core.ConnectSharded(plane.Addrs())
		if err == nil {
			f.sets = append(f.sets, set)
			var node *core.Node
			node, err = core.NewNode(core.NodeConfig{Host: host, Shards: set, Concurrency: concurrency})
			nodes = append(nodes, node)
		}
		if err != nil {
			f.close()
			return nil, fmt.Errorf("testbed: %s: %w", cfg.name, err)
		}
	}
	f.set, f.master, f.workers = f.sets[0], nodes[0], nodes[1:]
	f.master.SetClientOnly(true)
	return f, nil
}

// close stops the workers and releases the clients and the plane.
func (f *fixture) close() {
	_ = f.stopPump() // a scenario that cares already asked
	for _, set := range f.sets {
		set.Close()
	}
	f.plane.Close()
}

// putWave creates, fills and puts a wave of n data through the master and,
// on a plane with workers, schedules it: the head onto every worker, each
// task onto one.
func (f *fixture) putWave(n int) (*wave, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	prefix := fmt.Sprintf("%s-wave%d", f.cfg.name, len(f.waves))
	names := make([]string, n)
	w := &wave{contents: make([][]byte, n)}
	for i := range names {
		names[i] = fmt.Sprintf("%s-%04d", prefix, i)
		w.contents[i] = make([]byte, f.cfg.payload)
		f.rng.Read(w.contents[i])
	}
	var err error
	w.start = time.Now()
	if w.data, err = f.master.BitDew.CreateDataBatch(names); err != nil {
		return nil, err
	}
	if err := f.master.BitDew.PutAll(w.data, w.contents); err != nil {
		return nil, err
	}
	if len(f.workers) > 0 {
		scheduled := make([]data.Data, n)
		attrs := make([]attr.Attribute, n)
		for i, d := range w.data {
			scheduled[i] = *d
			attrs[i] = attr.Attribute{Name: prefix + "-task", Replica: 1, FaultTolerant: true, Protocol: "http"}
		}
		attrs[0].Name, attrs[0].Replica = prefix+"-genebase", attr.ReplicaAll
		if err := f.master.ActiveData.ScheduleAll(scheduled, attrs); err != nil {
			return nil, err
		}
	}
	f.waves = append(f.waves, w)
	return w, nil
}

// pump makes every worker pull continuously and independently — real
// reservoir hosts do not barrier on each other — until stopPump. A failed
// round is client-visible unavailability: it ends that worker's pump and
// fails whoever waits on the workers next.
func (f *fixture) pump() {
	f.pumped.Store(true)
	for i, w := range f.workers {
		f.pumping.Add(1)
		go func() {
			defer f.pumping.Done()
			for f.pumped.Load() {
				if err := w.SyncWait(1); err != nil {
					err = fmt.Errorf("testbed: %s: worker %d: %w", f.cfg.name, i+1, err)
					f.werr.CompareAndSwap(nil, &err)
					return
				}
			}
		}()
	}
}

// stopPump joins the workers and returns the first error any round hit.
func (f *fixture) stopPump() error {
	f.pumped.Store(false)
	f.pumping.Wait()
	if err := f.werr.Load(); err != nil {
		return *err
	}
	return nil
}

// distributed waits until the pumping workers hold the wave — the head on
// every worker, every task on at least one — and every serving scheduler
// has heard from every worker (after a restart or a reshape that is what
// "reconverged" means; for a fresh wave the first clause implies it). It
// returns the instant the condition was first observed, which is the one
// place a distribution is stamped.
func (f *fixture) distributed(w *wave) (time.Time, error) {
	held := func() bool {
		for i, d := range w.data {
			holders := 0
			for _, worker := range f.workers {
				if worker.Holds(d.UID) {
					holders++
				}
			}
			if holders == 0 || i == 0 && holders < len(f.workers) {
				return false
			}
		}
		// Range r is served by its home shard until a failover promotes a
		// successor. Only workers heartbeat, so counting the hosts a
		// scheduler knows is counting workers.
		for r := 0; r < f.set.N(); r++ {
			if c := f.plane.Shard(f.set.OwnerOf(r)); c == nil || len(c.DS.Hosts()) < len(f.workers) {
				return false
			}
		}
		return true
	}
	limit := time.Now().Add(deadline)
	for !held() {
		if err := f.werr.Load(); err != nil {
			return time.Time{}, *err
		}
		if time.Now().After(limit) {
			return time.Time{}, fmt.Errorf("testbed: %s: wave missed the %v distribution deadline", f.cfg.name, deadline)
		}
		time.Sleep(2 * time.Millisecond)
	}
	at := time.Now()
	f.mu.Lock()
	w.placed = true
	f.mu.Unlock()
	return at, nil
}

// step runs one fault against the plane (nil: none, a plain checkpoint),
// returns how long the fault took, and then audits the plane — the
// harness's only call of audit, always after the clock has stopped.
func (f *fixture) step(what string, fault func() error) (time.Duration, error) {
	start := time.Now()
	if fault != nil {
		if err := fault(); err != nil {
			return 0, fmt.Errorf("testbed: %s: %s: %w", f.cfg.name, what, err)
		}
	}
	took := time.Since(start)
	if err := f.audit(); err != nil {
		return took, fmt.Errorf("testbed: %s: after %s: %w", f.cfg.name, what, err)
	}
	return took, nil
}

// settle stops the workers (any error of theirs fails the run) and audits
// the plane at rest; a scenario ends on it, or on the audit of its last
// fault.
func (f *fixture) settle() error {
	if err := f.stopPump(); err != nil {
		return err
	}
	_, err := f.step("the run", nil)
	return err
}

// audit checks the plane's invariants over every datum of every wave put so
// far, and names the datum and the invariant in the error:
//
//   - the master's view is at the plane's membership epoch and size;
//   - at R > 1, with every shard up, replication converges;
//   - the catalog lists every datum exactly once, and nothing else;
//   - every datum has at least one locator on its home range;
//   - every datum reads back byte-exact through the client;
//   - every datum of a distributed wave has at least one owner on the
//     scheduler serving its range.
//
// On an unreplicated plane the data homed on a dead shard are the expected
// blast radius and are not audited; at R > 1 every datum is, whatever is
// down.
func (f *fixture) audit() error {
	f.mu.Lock()
	defer f.mu.Unlock()

	if f.set.Epoch() != f.plane.Epoch() {
		f.set.Refresh()
	}
	if f.set.Epoch() != f.plane.Epoch() || f.set.N() != f.plane.N() {
		return fmt.Errorf("audit: client view: epoch %d with %d shards, the plane is at epoch %d with %d",
			f.set.Epoch(), f.set.N(), f.plane.Epoch(), f.plane.N())
	}
	allUp := true
	for i := 0; i < f.plane.N(); i++ {
		allUp = allUp && f.plane.Shard(i) != nil
	}
	if f.plane.Replicas() > 1 && allUp {
		// A healthy-plane barrier: a stream towards a dead shard cannot drain.
		if err := f.plane.WaitReplicated(deadline); err != nil {
			return fmt.Errorf("audit: replication: %w", err)
		}
	}

	// owed is every datum the plane must still hold, by home range. The
	// master's own copy (PutAll left one) is dropped here, so the bytes
	// compared below can only have come over the wire.
	type owed struct {
		content []byte
		placed  bool
	}
	want := make(map[data.UID]owed)
	byHome := make(map[int][]data.Data)
	var all []data.Data
	local := f.master.Backend()
	for _, w := range f.waves {
		for i, d := range w.data {
			home := f.set.ShardOf(d.UID)
			if f.plane.Replicas() <= 1 && f.plane.Shard(home) == nil {
				continue
			}
			want[d.UID] = owed{w.contents[i], w.placed}
			byHome[home] = append(byHome[home], *d)
			all = append(all, *d)
			if err := local.Delete(string(d.UID)); err != nil {
				return fmt.Errorf("audit: %s: %w", d.Name, err)
			}
		}
	}

	// AllData merges the shards' answers by UID, so membership both ways is
	// also the count: as many rows as data put.
	listed, err := f.master.BitDew.AllData()
	if err != nil {
		return fmt.Errorf("audit: catalog: %w", err)
	}
	seen := make(map[data.UID]bool, len(listed))
	for _, d := range listed {
		seen[d.UID] = true
		if _, ok := want[d.UID]; !ok && !f.cfg.shared {
			return fmt.Errorf("audit: %s: stray catalog row: %d listed, %d put", d.Name, len(listed), len(all))
		}
	}
	for _, d := range all {
		if !seen[d.UID] {
			return fmt.Errorf("audit: %s: no catalog entry: %d listed, %d put", d.Name, len(listed), len(all))
		}
	}
	for home, ds := range byHome {
		uids := make([]data.UID, len(ds))
		for i, d := range ds {
			uids[i] = d.UID
		}
		locs, err := f.set.Shard(home).DC.LocatorsBatch(uids)
		if err != nil || len(locs) != len(ds) {
			return fmt.Errorf("audit: range %d: %d locator lists for %d data: %v", home, len(locs), len(ds), err)
		}
		for i, d := range ds {
			if len(locs[i]) == 0 {
				return fmt.Errorf("audit: %s: no locator", d.Name)
			}
		}
	}
	if err := f.master.BitDew.FetchAll(all, ""); err != nil {
		return fmt.Errorf("audit: byte-exact read: %w", err)
	}
	for _, d := range all {
		if got, err := local.Get(string(d.UID)); err != nil || !bytes.Equal(got, want[d.UID].content) {
			return fmt.Errorf("audit: %s: byte-exact read: got %d of %d bytes back: %v", d.Name, len(got), len(want[d.UID].content), err)
		}
		// The reads above went through the client, so by now its view routes
		// around anything dead.
		if c := f.plane.Shard(f.set.OwnerOf(f.set.ShardOf(d.UID))); want[d.UID].placed && (c == nil || len(c.DS.Owners(d.UID)) == 0) {
			return fmt.Errorf("audit: %s: distributed, but its scheduler records no owner", d.Name)
		}
	}
	return nil
}
