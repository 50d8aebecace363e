package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"bitdew/internal/core"
	"bitdew/internal/data"
	"bitdew/internal/repository"
	"bitdew/internal/runtime"
	"bitdew/internal/transfer"
)

// client is one closed-loop caller: its own connection to every shard, its
// own local storage and transfer engine, its own ring of put slots.
type client struct {
	id      int
	set     *core.ShardSet
	backend repository.Backend
	engine  *transfer.Engine
	bd      *core.BitDew
	ad      *core.ActiveData
	slots   []*data.Data
	// buf is the put payload; each put restamps it, so every put carries
	// fresh content without the generator paying for fresh random bytes.
	buf []byte
	// placeBufs are the task payloads of one place, restamped the same way,
	// and bcastBuf the broadcast datum's.
	placeBufs [][]byte
	bcastBuf  []byte
	places    int
	undeleted []placed // oldest first
}

// fixture is everything one run measures against: the plane, the two
// clients, the worker nodes and the preloaded fetch/search targets.
type fixture struct {
	w        *workload
	plane    *runtime.ShardedContainer
	stateDir string
	clients  [numClients]*client
	workers  []*core.Node
	sets     []*core.ShardSet // every connection, for close
	pre      []data.Data
	content  [][]byte // pre[i]'s expected bytes
	tr       *tracer

	bootMs, preloadMs, setupS float64
}

// genContents makes the preloaded data's bytes from the seed. It is the
// generator's work, not the program's, so it runs before any timer.
func genContents(w *workload, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, w.preload)
	for i := range out {
		out[i] = make([]byte, w.payload)
		rng.Read(out[i])
	}
	return out
}

// randomBytes fills a fresh buffer from rng.
func randomBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// newFixture is the timed set-up: boot the plane, connect the clients,
// preload, create the put slots, attach the workers. stateRoot is where a
// durable workload's StateDir is made; tr is nil except in traced runs.
func newFixture(w *workload, seed int64, content [][]byte, stateRoot string, tr *tracer) (f *fixture, err error) {
	f = &fixture{w: w, content: content, tr: tr}
	defer func() {
		if err != nil {
			f.close()
			f = nil
		}
	}()

	// Payload buffers are generator work: made before the clock starts.
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for i := range f.clients {
		c := &client{id: i, buf: randomBytes(rng, w.payload)}
		if w.mixes[i][opPlace] > 0 {
			for g := 0; g < w.group; g++ {
				c.placeBufs = append(c.placeBufs, randomBytes(rng, w.payload))
			}
			if w.bcast > 0 {
				c.bcastBuf = randomBytes(rng, w.bcast)
			}
		}
		f.clients[i] = c
	}

	start := time.Now()
	cfg := runtime.ShardedConfig{
		Shards:   w.shards,
		Replicas: w.replicas,
		// Every workload moves bytes over http; the ftp and swarm servers
		// would only add boot time.
		DisableFTP:   true,
		DisableSwarm: true,
	}
	if w.durable {
		if f.stateDir, err = os.MkdirTemp(stateRoot, "state-"); err != nil {
			return f, err
		}
		cfg.StateDir = f.stateDir
	}
	if f.plane, err = runtime.NewShardedContainer(cfg); err != nil {
		return f, fmt.Errorf("boot: %w", err)
	}
	f.bootMs = ms(time.Since(start))

	for _, c := range f.clients {
		if c.set, err = f.connect(); err != nil {
			return f, err
		}
		c.backend = traceBackend(repository.NewMemBackend(), tr, "client")
		host := fmt.Sprintf("bench-c%d", c.id)
		set := c.set
		c.engine = transfer.NewEngineRouted(c.backend, func(uid data.UID) *transfer.Client {
			return set.For(uid).DT
		}, host, 16)
		c.bd = core.NewBitDewSharded(set, c.backend, c.engine, host)
		c.ad = core.NewActiveDataSharded(set)
	}

	preStart := time.Now()
	if err = f.preload(); err != nil {
		return f, fmt.Errorf("preload: %w", err)
	}
	f.preloadMs = ms(time.Since(preStart))

	for _, c := range f.clients {
		names := make([]string, w.slots)
		for i := range names {
			names[i] = fmt.Sprintf("slot-c%d-%03d", c.id, i)
		}
		if c.slots, err = c.bd.CreateDataBatch(names); err != nil {
			return f, fmt.Errorf("slots: %w", err)
		}
	}

	for i := 0; i < w.workers; i++ {
		set, err := f.connect()
		if err != nil {
			return f, err
		}
		n, err := core.NewNode(core.NodeConfig{
			Host:        fmt.Sprintf("bench-w%d", i),
			Shards:      set,
			Backend:     traceBackend(repository.NewMemBackend(), tr, "worker"),
			Concurrency: 16,
		})
		if err != nil {
			return f, err
		}
		// One heartbeat opens the worker's scheduler sessions, so the first
		// measured place does not pay for them.
		if err := n.SyncWait(1); err != nil {
			return f, fmt.Errorf("worker %d: %w", i, err)
		}
		f.workers = append(f.workers, n)
	}
	// A replicated plane is set up once its replicas hold the preload.
	// Load that starts while they are still pulling it can delete a placed
	// datum before a replica has fetched its content, and that replica's
	// stream then never converges again.
	if err := f.converged(); err != nil {
		return f, err
	}
	f.setupS = time.Since(start).Seconds()
	return f, nil
}

// converged waits until a replicated plane's replicas have caught up. After
// the measured rounds it is part of checking the outputs: a plane whose
// replication has silently stopped answers every op and is still wrong.
func (f *fixture) converged() error {
	if f.plane.Replicas() < 2 {
		return nil
	}
	return f.plane.WaitReplicated(replTimeout)
}

func (f *fixture) connect() (*core.ShardSet, error) {
	set, err := core.ConnectSharded(f.plane.Addrs(), core.WithReplicas(f.plane.Replicas()))
	if err != nil {
		return nil, fmt.Errorf("connect: %w", err)
	}
	f.sets = append(f.sets, set)
	return set, nil
}

// preload creates the fetch and search targets through client 0, in
// batches, then drops client 0's local copies: a fetch must move bytes.
func (f *fixture) preload() error {
	const batch = 1024
	c := f.clients[0]
	f.pre = make([]data.Data, 0, f.w.preload)
	for lo := 0; lo < f.w.preload; lo += batch {
		hi := min(lo+batch, f.w.preload)
		names := make([]string, hi-lo)
		for i := range names {
			names[i] = fmt.Sprintf("pre-%05d", lo+i)
		}
		ds, err := c.bd.CreateDataBatch(names)
		if err != nil {
			return err
		}
		if err := c.bd.PutAll(ds, f.content[lo:hi]); err != nil {
			return err
		}
		for _, d := range ds {
			f.pre = append(f.pre, *d)
			if err := c.backend.Delete(string(d.UID)); err != nil {
				return err
			}
		}
	}
	return nil
}

// close tears the fixture down and removes its StateDir. It is safe on a
// partly built fixture.
func (f *fixture) close() error {
	var errs []error
	for _, set := range f.sets {
		errs = append(errs, set.Close())
	}
	if f.plane != nil {
		errs = append(errs, f.plane.Close())
	}
	if f.stateDir != "" {
		errs = append(errs, os.RemoveAll(f.stateDir), syncDir(filepath.Dir(f.stateDir)))
	}
	return errors.Join(errs...)
}

// syncDir flushes a directory. Thousands of files were written and unlinked
// under it; left alone, the file system commits that during the next twenty
// seconds of whatever runs next — the next set-up, the next run — and costs
// it a tenth of its throughput. Pay for it here instead.
func syncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
