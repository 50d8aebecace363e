package runtime

import (
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"time"

	"bitdew/internal/dht"
	"bitdew/internal/repl"
	"bitdew/internal/rpc"
)

// MembershipService is the rpc service name of the shard-membership table.
const MembershipService = "ring"

// Membership is the table every shard serves under the "ring" service; the
// type lives in dht so that clients (internal/core) declare the same wire
// type as the server.
type Membership = dht.Membership

// MembershipTable serves a shard's (possibly changing) membership view
// under the "ring" service. Every container owns one, Set on every committed
// reshape, which is how clients learn the plane grew or shrank.
type MembershipTable struct {
	mu    sync.Mutex
	table Membership
}

// Mount serves the table on a shard's Mux.
func (t *MembershipTable) Mount(m *rpc.Mux) {
	rpc.Register(m, MembershipService, "Members", func(struct{}) (Membership, error) {
		return t.Table(), nil
	})
}

// Set publishes a committed membership change.
func (t *MembershipTable) Set(epoch uint64, addrs []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if epoch < t.table.Epoch {
		return
	}
	t.table.Epoch = epoch
	t.table.Addrs = append([]string(nil), addrs...)
}

// Table returns the current view.
func (t *MembershipTable) Table() Membership {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.table
	out.Addrs = append([]string(nil), t.table.Addrs...)
	return out
}

// Members fetches the membership table from any one shard.
func Members(c rpc.Client) (Membership, error) {
	var table Membership
	err := c.Call(MembershipService, "Members", struct{}{}, &table)
	return table, err
}

// ShardedConfig configures a sharded service plane hosted in one process.
type ShardedConfig struct {
	// Shards is the number of independent service containers (>= 1).
	Shards int
	// Addrs optionally fixes each shard's listen address (len == Shards);
	// empty picks fresh loopback ports. cmd/bitdew-service uses it so a
	// single-process plane announces predictable ports.
	Addrs []string
	// StateDir, when set, gives shard i its own durable state under
	// <StateDir>/shard-<i> — each shard checkpoints and recovers
	// independently, exactly like N single containers would.
	StateDir string
	// DisableFTP / DisableHTTP / DisableSwarm apply to every shard.
	DisableFTP   bool
	DisableHTTP  bool
	DisableSwarm bool
	// FTPThrottle caps every shard's ftp server per-connection rate in
	// bytes/s (0 = unthrottled).
	FTPThrottle int64
	// RPCOptions configure every shard's rpc server (latency, serve
	// limits) — the per-host capacity model of the scaling experiments.
	RPCOptions []rpc.ServerOption
	// Replicas enables shard replication: each key range lives on its home
	// shard plus Replicas-1 successor shards (internal/repl), so killing
	// one shard costs no availability — a successor is promoted in its
	// place. 0 or 1 leaves the plane unreplicated. Capped at Shards.
	Replicas int
	// ReplLogf receives replication life-cycle events from every shard.
	ReplLogf func(format string, args ...any)
}

// ShardedContainer is a sharded D* service plane hosted in one process: N
// independent service containers — each a complete Data Catalog, Data
// Repository, Data Transfer and Data Scheduler over its own store — each
// wired into the plane by NewContainer exactly as a bitdew-service process
// started with -shard-id/-peers would be. Clients place each datum on its
// home shard by consistent hash of the UID (dht.Placement over the
// membership order), so the containers scale out without coordinating.
// Shards can be killed and restarted independently; a restarted shard
// recovers from its own StateDir and re-listens on its original address.
type ShardedContainer struct {
	cfg ShardedConfig

	mu     sync.Mutex
	shards []*Container // nil at indexes whose shard is killed
	addrs  []string     // placement order; AddShard/DrainShard grow and shrink it
	// epoch is the committed membership epoch (>= 1).
	epoch uint64
	// rebalancing serializes AddShard/DrainShard: one membership change at
	// a time, plane-wide.
	rebalancing bool
	// retired holds drained shards kept alive so stale clients (cached
	// locators, in-flight reads) still get answers until ReleaseDrained.
	retired []*Container
}

// NewShardedContainer boots every shard, each on its own loopback address.
func NewShardedContainer(cfg ShardedConfig) (*ShardedContainer, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("runtime: sharded container needs >= 1 shard, got %d", cfg.Shards)
	}
	if len(cfg.Addrs) != 0 && len(cfg.Addrs) != cfg.Shards {
		return nil, fmt.Errorf("runtime: %d shards but %d addresses", cfg.Shards, len(cfg.Addrs))
	}
	s := &ShardedContainer{
		cfg:    cfg,
		shards: make([]*Container, cfg.Shards),
		addrs:  make([]string, cfg.Shards),
	}
	// Pre-listen every shard: each container needs the full membership
	// table up front (ring service, shippers, failover probes), but they
	// boot sequentially. Connections made to a not-yet-booted shard simply
	// wait in its accept backlog.
	liss := make([]net.Listener, cfg.Shards)
	closeAll := func(ls []net.Listener) {
		for _, l := range ls {
			l.Close()
		}
	}
	for i := range liss {
		addr := "127.0.0.1:0"
		if len(cfg.Addrs) != 0 {
			addr = cfg.Addrs[i]
		}
		lis, err := net.Listen("tcp", addr)
		if err != nil {
			closeAll(liss[:i])
			return nil, fmt.Errorf("runtime: shard %d: listen %s: %w", i, addr, err)
		}
		liss[i] = lis
		s.addrs[i] = lis.Addr().String()
	}
	for i, lis := range liss {
		// SkipBootCheck: the whole plane is booting together here, so no
		// shard can have promoted anything while another was down.
		c, err := NewContainer(s.containerConfig(i, s.addrs, lis, true))
		if err != nil {
			closeAll(liss[i+1:])
			s.Close()
			return nil, fmt.Errorf("runtime: shard %d: %w", i, err)
		}
		s.shards[i] = c
		// The epoch survives restarts through each shard's persisted
		// membership state; adopt the highest any shard recovered.
		if e := c.Membership().Epoch; e > s.epoch {
			s.epoch = e
		}
	}
	// NewContainer capped R at the membership size; report what runs.
	s.cfg.Replicas = s.shards[0].Membership().Replicas
	return s, nil
}

// containerConfig derives the configuration of shard i of the membership
// addrs, served on lis (nil re-listens on addrs[i]).
func (s *ShardedContainer) containerConfig(i int, addrs []string, lis net.Listener, skipBootCheck bool) ContainerConfig {
	cfg := ContainerConfig{
		Addr:         addrs[i],
		Listener:     lis,
		DisableFTP:   s.cfg.DisableFTP,
		DisableHTTP:  s.cfg.DisableHTTP,
		DisableSwarm: s.cfg.DisableSwarm,
		FTPThrottle:  s.cfg.FTPThrottle,
		RPCOptions:   s.cfg.RPCOptions,
		Plane: Plane{
			Shard:         i,
			Addrs:         addrs,
			Replicas:      s.cfg.Replicas,
			SkipBootCheck: skipBootCheck,
			Logf:          s.cfg.ReplLogf,
		},
	}
	if s.cfg.StateDir != "" {
		cfg.StateDir = filepath.Join(s.cfg.StateDir, fmt.Sprintf("shard-%d", i))
	}
	return cfg
}

// N returns the shard count.
func (s *ShardedContainer) N() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.addrs)
}

// Addrs returns every shard's rpc address in placement order (the
// membership table clients must connect with).
func (s *ShardedContainer) Addrs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.addrs...)
}

// Epoch returns the committed membership epoch.
func (s *ShardedContainer) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Shard returns shard i's container (nil while that shard is killed or i is
// out of the current membership).
func (s *ShardedContainer) Shard(i int) *Container {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < 0 || i >= len(s.shards) {
		return nil
	}
	return s.shards[i]
}

// KillShard stops shard i, releasing its sockets and store; its state
// directory (when durable) stays behind for RestartShard. The other shards
// keep serving — a client loses exactly the data homed on i.
func (s *ShardedContainer) KillShard(i int) error {
	s.mu.Lock()
	if i < 0 || i >= len(s.shards) {
		s.mu.Unlock()
		return fmt.Errorf("runtime: no shard %d in the current membership", i)
	}
	c := s.shards[i]
	s.shards[i] = nil
	s.mu.Unlock()
	if c == nil {
		return fmt.Errorf("runtime: shard %d already down", i)
	}
	return c.Close()
}

// RestartShard boots shard i again on its original address, recovering
// whatever its StateDir holds. It is the administrator-restart of the
// paper's transient fault model, per shard.
func (s *ShardedContainer) RestartShard(i int) error {
	s.mu.Lock()
	if i < 0 || i >= len(s.shards) {
		s.mu.Unlock()
		return fmt.Errorf("runtime: no shard %d in the current membership", i)
	}
	running := s.shards[i] != nil
	addrs := append([]string(nil), s.addrs...)
	s.mu.Unlock()
	if running {
		return fmt.Errorf("runtime: shard %d still running", i)
	}
	// A restarting shard must resolve ownership by probing: a successor may
	// have been promoted over its ranges while it was down, in which case
	// it rejoins as a replica instead of serving stale state.
	c, err := NewContainer(s.containerConfig(i, addrs, nil, false))
	if err != nil {
		return fmt.Errorf("runtime: restart shard %d: %w", i, err)
	}
	s.mu.Lock()
	s.shards[i] = c
	s.mu.Unlock()
	return nil
}

// Replicas returns the plane's replication factor (0 or 1: unreplicated).
func (s *ShardedContainer) Replicas() int { return s.cfg.Replicas }

// WaitReplicated blocks until every live shard's outbound replication
// streams are fully acknowledged (snapshot synced, tail acked, content
// pulled), or the deadline passes. It is a healthy-plane barrier: while a
// shard is down, its peers' streams to it cannot converge and this returns
// an error at the deadline.
func (s *ShardedContainer) WaitReplicated(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for i := 0; i < s.N(); i++ {
		c := s.Shard(i)
		if c == nil {
			continue
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return fmt.Errorf("runtime: replication convergence timed out after %v", timeout)
		}
		if err := c.Repl().WaitReplicated(remaining); err != nil {
			return fmt.Errorf("runtime: shard %d: %w", i, err)
		}
	}
	return nil
}

// beginRebalance validates and reserves a plane-wide membership change,
// returning the current shard list, addresses, and epoch.
func (s *ShardedContainer) beginRebalance() ([]*Container, []string, uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rebalancing {
		return nil, nil, 0, fmt.Errorf("runtime: a membership change is already in flight")
	}
	for i, c := range s.shards {
		if c == nil {
			return nil, nil, 0, fmt.Errorf("runtime: shard %d is down; restart it before reshaping the plane", i)
		}
	}
	s.rebalancing = true
	return append([]*Container(nil), s.shards...),
		append([]string(nil), s.addrs...), s.epoch, nil
}

func (s *ShardedContainer) endRebalance() {
	s.mu.Lock()
	s.rebalancing = false
	s.mu.Unlock()
}

// reshapeClients drives each shard's ownership node by direct dispatch on
// its Mux — the same protocol `bitdew ring add/drain` speaks over TCP.
func reshapeClients(shards []*Container) []*repl.Client {
	clients := make([]*repl.Client, len(shards))
	for i, c := range shards {
		clients[i] = repl.NewClient(rpc.NewLocalClient(c.Mux, 0))
	}
	return clients
}

// AddShard grows the plane by one shard under live traffic: it boots the
// new container as the last shard of the grown membership (invisible to
// clients until the commit publishes its address) and repl.Grow moves
// the key ranges. Returns the new shard's index; an error beside a valid
// index means the change committed but some shard refused the commit.
func (s *ShardedContainer) AddShard() (int, error) {
	shards, cur, epoch, err := s.beginRebalance()
	if err != nil {
		return -1, err
	}
	defer s.endRebalance()
	newIdx := len(cur)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return -1, fmt.Errorf("runtime: booting shard %d: %w", newIdx, err)
	}
	newAddrs := append(cur, lis.Addr().String())
	c, err := NewContainer(s.containerConfig(newIdx, newAddrs, lis, true))
	if err != nil {
		return -1, fmt.Errorf("runtime: booting shard %d: %w", newIdx, err)
	}
	shards = append(shards, c)
	committed, err := repl.Grow(reshapeClients(shards), newAddrs, epoch+1)
	if !committed {
		c.Close()
		return -1, fmt.Errorf("runtime: %w", err)
	}
	s.mu.Lock()
	s.shards, s.addrs, s.epoch = shards, newAddrs, epoch+1
	s.mu.Unlock()
	return newIdx, err
}

// DrainShard shrinks the plane by retiring the last shard through
// repl.Drain. The drained container is kept ALIVE (its cached locators
// and in-flight reads still answer) until ReleaseDrained; its own commit
// makes it refuse every data operation with the not-owner handoff. Returns
// the retired shard's former index, with AddShard's error contract.
func (s *ShardedContainer) DrainShard() (int, error) {
	shards, cur, epoch, err := s.beginRebalance()
	if err != nil {
		return -1, err
	}
	defer s.endRebalance()
	last := len(cur) - 1
	committed, err := repl.Drain(reshapeClients(shards), cur[:last], epoch+1)
	if !committed {
		return -1, fmt.Errorf("runtime: %w", err)
	}
	s.mu.Lock()
	s.shards, s.addrs, s.epoch = shards[:last], cur[:last], epoch+1
	s.retired = append(s.retired, shards[last])
	s.mu.Unlock()
	return last, err
}

// ReleaseDrained closes every container retired by DrainShard, once all
// clients have converged on the shrunk membership.
func (s *ShardedContainer) ReleaseDrained() error {
	s.mu.Lock()
	retired := s.retired
	s.retired = nil
	s.mu.Unlock()
	var first error
	for _, c := range retired {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close stops every live shard, returning the first error.
func (s *ShardedContainer) Close() error {
	s.mu.Lock()
	shards := append([]*Container(nil), s.shards...)
	shards = append(shards, s.retired...)
	for i := range s.shards {
		s.shards[i] = nil
	}
	s.retired = nil
	s.mu.Unlock()
	var first error
	for _, c := range shards {
		if c == nil {
			continue
		}
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
