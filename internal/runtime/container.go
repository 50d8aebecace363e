// Package runtime assembles BitDew's stable-node side: the service
// container running the four D* services (Data Catalog, Data Repository,
// Data Transfer, Data Scheduler) together with the protocol back-ends (an
// FTP-like server, an HTTP server and a swarm tracker) over shared
// persistent storage. The paper's fault model for these hosts is the
// transient fault — an administrator restarts them — which the container
// supports through the db package's WAL/snapshot replay.
package runtime

import (
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"time"

	"bitdew/internal/catalog"
	"bitdew/internal/data"
	"bitdew/internal/db"
	"bitdew/internal/protocols/ftp"
	"bitdew/internal/protocols/httpx"
	"bitdew/internal/protocols/swarm"
	"bitdew/internal/repl"
	"bitdew/internal/repository"
	"bitdew/internal/rpc"
	"bitdew/internal/scheduler"
	"bitdew/internal/transfer"
)

// ContainerConfig configures a service container.
type ContainerConfig struct {
	// Addr is the rpc listen address; empty serves in-process only (access
	// the container through Mux with core.ConnectLocal).
	Addr string
	// StateDir makes the whole service plane durable and restartable: the
	// meta-data of every D* service (catalog data + locators, scheduler
	// placements, repository endpoints) is checkpointed under
	// StateDir/meta (snapshot + write-ahead log, compacted by size)
	// and repository content lives under StateDir/data, so a container
	// rebuilt over the same directory recovers all of it. Ignored for the
	// store when Store is set, and for the content when Backend is set.
	StateDir string
	// Store is the meta-data database (defaults to an embedded RowStore;
	// all four services persist through it).
	Store db.Store
	// Backend is the repository storage (defaults to in-memory).
	Backend repository.Backend
	// DisableFTP / DisableHTTP / DisableSwarm turn protocol servers off.
	DisableFTP   bool
	DisableHTTP  bool
	DisableSwarm bool
	// FTPThrottle caps the ftp server's per-connection rate in bytes/s
	// (0 = unthrottled); benchmarks use it to emulate constrained uplinks.
	FTPThrottle int64
	// RPCOptions configure the rpc server (latency injection, serve
	// limits); benchmarks use them to model a service host of finite
	// capacity from one machine.
	RPCOptions []rpc.ServerOption
	// Listener, when set, serves rpc on this pre-bound listener instead of
	// Addr; the container owns it from here on. A plane hosted in one
	// process pre-listens every shard so the full membership table exists
	// before the first container boots.
	Listener net.Listener
	// Plane says which shard of which service plane this container is. The
	// zero value is a one-shard plane at the container's own address.
	Plane Plane
}

// Plane describes the service plane a container is one shard of. It is the
// same description whether the other shards share the process
// (ShardedContainer) or run on other hosts (bitdew-service -shard-id/-peers),
// and NewContainer is the one place it is acted on: the container
// feed-wraps its meta store, mounts the range-ownership node (internal/repl),
// gates its key ranges with the node's gate, and serves the membership
// table.
type Plane struct {
	// Shard is this container's index in Addrs; Addrs is the full
	// membership table in placement order (a restarted shard that recovered
	// a committed reshape trusts its recovered shard count over len(Addrs)).
	Shard int
	Addrs []string
	// Replicas is R: each key range lives on its home shard plus R-1
	// successors on the placement circle, with automatic failover. Capped
	// at len(Addrs); 0 or 1 leaves the plane unreplicated (and, for now, the
	// only kind that reshapes).
	Replicas int
	// SkipBootCheck may be set only on a coordinated fresh boot of the
	// whole plane (nobody can have promoted anything yet); restarts must
	// always resolve ownership by probing.
	SkipBootCheck bool
	// Logf receives ownership life-cycle events.
	Logf func(format string, args ...any)
}

// Container is one stable service host.
type Container struct {
	Mux *rpc.Mux

	DC *catalog.Service
	DR *repository.Service
	DT *transfer.Service
	DS *scheduler.Service

	FTP     *ftp.Server
	HTTP    *httpx.Server
	Tracker *swarm.Tracker

	rpcServer *rpc.Server
	// ownStore is the durable store this container opened from StateDir
	// (nil when the caller supplied Store); Close flushes and closes it.
	ownStore *db.DurableStore
	// ownBackend is the content pack it opened from StateDir (nil when the
	// caller supplied Backend); Close closes it.
	ownBackend *repository.DirBackend
	// feed wraps the meta store: its mutation stream is what node, which
	// speaks for the shard's key ranges, ships to followers and to the new
	// homes of moving arcs.
	feed *db.FeedStore
	node *repl.Node
	ring *MembershipTable

	mu      sync.Mutex
	seeders map[data.UID]*swarm.Peer
	closed  bool
}

// NewContainer builds and starts a service container.
func NewContainer(cfg ContainerConfig) (*Container, error) {
	c := &Container{
		Mux:     rpc.NewMux(),
		DT:      transfer.NewService(),
		seeders: make(map[data.UID]*swarm.Peer),
	}
	lis := cfg.Listener
	fail := func(err error) (*Container, error) {
		if lis != nil {
			lis.Close() // the rpc server, built last, never got to own it
		}
		c.Close()
		return nil, fmt.Errorf("runtime: %w", err)
	}
	var err error
	// Bind first, serve last: the membership table needs the real address,
	// and connections made meanwhile wait in the accept backlog.
	if lis == nil && cfg.Addr != "" {
		if lis, err = net.Listen("tcp", cfg.Addr); err != nil {
			return fail(err)
		}
	}
	if cfg.Store == nil {
		if cfg.StateDir != "" {
			c.ownStore, err = db.OpenDurable(filepath.Join(cfg.StateDir, "meta"))
			if err != nil {
				return fail(err)
			}
			cfg.Store = c.ownStore
		} else {
			cfg.Store = db.NewRowStore()
		}
	}
	backend := cfg.Backend
	if backend == nil {
		if cfg.StateDir != "" {
			if c.ownBackend, err = repository.NewDirBackend(filepath.Join(cfg.StateDir, "data")); err != nil {
				return fail(err)
			}
			backend = c.ownBackend
		} else {
			backend = repository.NewMemBackend()
		}
	}

	plane := cfg.Plane
	if len(plane.Addrs) == 0 {
		plane.Shard, plane.Addrs = 0, []string{""}
		if lis != nil {
			plane.Addrs[0] = lis.Addr().String()
		}
	}
	if plane.Replicas > len(plane.Addrs) {
		plane.Replicas = len(plane.Addrs)
	}
	c.ring = &MembershipTable{table: Membership{
		Self:     plane.Shard,
		Addrs:    append([]string(nil), plane.Addrs...),
		Replicas: plane.Replicas,
	}}
	// The stream epoch is minted per boot: a restarted shard recovers its
	// rows from disk but not its sequence counter, and the fresh epoch is
	// what tells its followers to resync from a snapshot.
	if c.feed, err = db.NewFeedStore(cfg.Store, uint64(time.Now().UnixNano())); err != nil {
		return fail(err)
	}
	tables := []string{catalog.TableData, catalog.TableLocators}
	c.node, err = repl.NewNode(repl.Config{
		Shard:          plane.Shard,
		Addrs:          plane.Addrs,
		Replicas:       plane.Replicas,
		Feed:           c.feed,
		GatedTables:    tables,
		SchedulerTable: scheduler.TableEntries,
		ContentTable:   catalog.TableLocators,
		AdoptScheduler: func(rows map[string][]byte) error { return c.DS.AdoptRows(rows) },
		DropScheduler:  func(uid string) error { return c.DS.Unschedule(data.UID(uid)) },
		Endpoints:      func() map[string]string { return c.DR.Endpoints() },
		GetContent: func(uid string) ([]byte, bool, error) {
			content, err := backend.Get(uid)
			if errors.Is(err, repository.ErrNoContent) {
				return nil, false, nil
			}
			return content, err == nil, err
		},
		PutContent:  backend.Put,
		DropContent: backend.Delete,
		HasContent: func(uid string) bool {
			_, err := backend.Size(uid)
			return err == nil
		},
		OnCommit:      c.ring.Set,
		SkipBootCheck: plane.SkipBootCheck,
		Logf:          plane.Logf,
	})
	if err != nil {
		return fail(err)
	}
	c.ring.Set(c.node.Epoch(), plane.Addrs)
	// Every service write flows feed-first behind the ownership gate, which
	// refuses keys whose range this shard lost, has not been handed yet, or
	// never homed.
	store := db.NewGatedStore(c.feed, c.node.GateUID, tables...)
	if c.DS, err = scheduler.NewDurable(store); err != nil {
		return fail(err)
	}
	c.DS.SetRangeGate(func(uid data.UID) error { return c.node.GateUID(string(uid)) })
	if c.DR, err = repository.NewDurableService(backend, store); err != nil {
		return fail(err)
	}
	c.DC = catalog.NewService(store)
	// A delete takes the datum's schedule entry and content with it once its
	// catalog rows are gone; followers drop their copies through DropContent.
	c.DC.SetDeleteCascade(func(uid data.UID) error {
		if err := c.DS.Unschedule(uid); err != nil && !errors.Is(err, scheduler.ErrNotScheduled) {
			return err
		}
		return backend.Delete(string(uid))
	})
	// A heartbeat's assignments carry the lookup the worker would otherwise
	// send this shard: the catalog's copies and the repository's fallback.
	c.DS.SetLocate(func(uid data.UID, protocol string) ([]data.Locator, error) {
		locs, err := c.DC.Locators(uid)
		if err != nil {
			return nil, err
		}
		fallback, _ := c.DR.LocatorAny(uid, protocol) // none served: the catalog's copies alone
		return data.Candidates(locs, fallback, protocol), nil
	})

	if !cfg.DisableFTP {
		var opts []ftp.Option
		if cfg.FTPThrottle > 0 {
			opts = append(opts, ftp.WithThrottle(cfg.FTPThrottle))
		}
		if c.FTP, err = ftp.NewServer(backend, "127.0.0.1:0", opts...); err != nil {
			return fail(err)
		}
		c.DR.RegisterEndpoint("ftp", c.FTP.Addr())
	}
	if !cfg.DisableHTTP {
		if c.HTTP, err = httpx.NewServer(backend, "127.0.0.1:0"); err != nil {
			return fail(err)
		}
		c.DR.RegisterEndpoint("http", c.HTTP.Addr())
	}
	if !cfg.DisableSwarm {
		if c.Tracker, err = swarm.NewTracker("127.0.0.1:0"); err != nil {
			return fail(err)
		}
		c.DR.RegisterEndpoint("bittorrent", c.Tracker.Addr())
		// Lazily start a seeder the first time a bittorrent locator for a
		// datum is requested, so every swarm has a permanent first source.
		c.DR.SetLocatorHook(func(uid data.UID, protocol string) error {
			if protocol != "bittorrent" {
				return nil
			}
			return c.ensureSeeder(backend, uid)
		})
	}

	c.DC.Mount(c.Mux)
	c.DR.Mount(c.Mux)
	c.DT.Mount(c.Mux)
	c.DS.Mount(c.Mux)
	c.ring.Mount(c.Mux)
	c.node.Mount(c.Mux)
	// Ownership is resolved before the rpc server answers: no peer or client
	// can observe this shard alive while it is still deciding whether it (or
	// a promoted successor) owns its ranges — the ordering half of the
	// split-brain argument.
	c.node.Start()
	if lis != nil {
		c.rpcServer = rpc.NewServer(lis, c.Mux, cfg.RPCOptions...)
	}
	return c, nil
}

// Membership returns the membership table this shard serves.
func (c *Container) Membership() Membership { return c.ring.Table() }

// Repl returns the container's range-ownership node.
func (c *Container) Repl() *repl.Node { return c.node }

// Checkpoint forces a compaction of the container's durable store (a full
// snapshot plus WAL rotation), bounding the replay a subsequent restart
// pays. It is a no-op for containers without a StateDir-opened store.
func (c *Container) Checkpoint() error {
	if c.ownStore == nil {
		return nil
	}
	return c.ownStore.Compact()
}

// Addr returns the rpc listen address ("" when serving in-process only).
func (c *Container) Addr() string {
	if c.rpcServer == nil {
		return ""
	}
	return c.rpcServer.Addr()
}

// ensureSeeder starts (once) a swarm seeder for the datum's content.
func (c *Container) ensureSeeder(backend repository.Backend, uid data.UID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("runtime: container closed")
	}
	if _, ok := c.seeders[uid]; ok {
		return nil
	}
	content, err := backend.Get(string(uid))
	if err != nil {
		return fmt.Errorf("runtime: cannot seed %s: %w", uid, err)
	}
	meta := swarm.NewMetainfo(string(uid), content, swarm.DefaultPieceSize)
	seeder, err := swarm.NewSeeder(backend, meta, c.Tracker.Addr(), "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("runtime: seeding %s: %w", uid, err)
	}
	c.seeders[uid] = seeder
	return nil
}

// Close stops every server the container started.
func (c *Container) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	seeders := c.seeders
	c.seeders = map[data.UID]*swarm.Peer{}
	c.mu.Unlock()

	for _, s := range seeders {
		s.Close()
	}
	if c.rpcServer != nil {
		c.rpcServer.Close()
	}
	if c.node != nil {
		c.node.Stop()
	}
	if c.FTP != nil {
		c.FTP.Close()
	}
	if c.HTTP != nil {
		c.HTTP.Close()
	}
	if c.Tracker != nil {
		c.Tracker.Close()
	}
	if c.feed != nil {
		c.feed.Close()
	}
	if c.ownStore != nil {
		c.ownStore.Close()
	}
	if c.ownBackend != nil {
		c.ownBackend.Close()
	}
	return nil
}
