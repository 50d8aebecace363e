package repl

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"bitdew/internal/db"
	"bitdew/internal/dht"
	"bitdew/internal/repository"
	"bitdew/internal/rpc"
)

// The repl unit tests run real planes: every shard is a FeedStore + Node +
// rpc server on loopback, so ship/apply/ack, resync, promotion and rejoin
// are exercised over the actual wire protocol, not against mocks.

const testWait = 15 * time.Second

// contentBox is a shard's content backend: a MemBackend that counts the
// content stored and can be scripted to fail reads.
type contentBox struct {
	*repository.MemBackend
	mu        sync.Mutex
	failReads int // reads left to fail with a backend error
	puts      int // content stored, pulled or not
}

func (b *contentBox) Put(uid string, c []byte) error {
	b.mu.Lock()
	b.puts++
	b.mu.Unlock()
	return b.MemBackend.Put(uid, c)
}

func (b *contentBox) Get(uid string) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.failReads > 0 {
		b.failReads--
		return nil, fmt.Errorf("scripted read error on %s", uid)
	}
	return b.MemBackend.Get(uid)
}

func (b *contentBox) has(uid string) bool {
	_, err := b.Size(uid)
	return err == nil
}

type testShard struct {
	addr    string
	feed    *db.FeedStore
	node    *Node
	srv     *rpc.Server
	content *contentBox
}

type plane struct {
	t        *testing.T
	addrs    []string
	replicas int
	epoch    uint64
	shards   []*testShard
	// dialOpts, when set, contributes extra options to every shard's
	// outbound replication dials — the crash-point tests arm FaultPlans on
	// the primary→replica link with it. Survives restarts (boot rereads it).
	dialOpts func(from int, addr string) []rpc.DialOption
}

// newPlane boots n fresh shards with pre-listened addresses, mirroring the
// ShardedContainer fresh-boot path (SkipBootCheck: the whole plane starts
// together, so nobody can have promoted anything).
func newPlane(t *testing.T, n, replicas int) *plane {
	t.Helper()
	return newFaultPlane(t, n, replicas, nil)
}

// newFaultPlane is newPlane with the outbound-dial hook armed before any
// shard boots, so even the first Sync frame is scripted.
func newFaultPlane(t *testing.T, n, replicas int, dialOpts func(from int, addr string) []rpc.DialOption) *plane {
	t.Helper()
	p := &plane{t: t, replicas: replicas, epoch: 1, shards: make([]*testShard, n), dialOpts: dialOpts}
	liss := make([]net.Listener, n)
	for i := range liss {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		liss[i] = lis
		p.addrs = append(p.addrs, lis.Addr().String())
	}
	for i, lis := range liss {
		p.shards[i] = p.boot(i, lis, true)
	}
	t.Cleanup(func() {
		for _, s := range p.shards {
			if s != nil {
				p.killShard(s)
			}
		}
	})
	return p
}

func (p *plane) boot(i int, lis net.Listener, skipBootCheck bool) *testShard {
	p.t.Helper()
	p.epoch++
	feed, err := db.NewFeedStore(db.NewRowStore(), p.epoch)
	if err != nil {
		p.t.Fatal(err)
	}
	box := &contentBox{MemBackend: repository.NewMemBackend()}
	var dialOpts func(addr string) []rpc.DialOption
	if p.dialOpts != nil {
		from := i
		dialOpts = func(addr string) []rpc.DialOption { return p.dialOpts(from, addr) }
	}
	node, err := NewNode(Config{
		Shard:         i,
		Addrs:         p.addrs,
		Replicas:      p.replicas,
		Feed:          feed,
		DialOpts:      dialOpts,
		GatedTables:   []string{"dc_data", "dc_locators"},
		ContentTable:  "dc_locators",
		Content:       box,
		ProbeTimeout:  150 * time.Millisecond,
		SkipBootCheck: skipBootCheck,
		Logf:          p.t.Logf,
	})
	if err != nil {
		p.t.Fatal(err)
	}
	mux := rpc.NewMux()
	node.Mount(mux)
	// Prod ordering: ownership resolved before the server answers.
	node.Start()
	return &testShard{addr: p.addrs[i], feed: feed, node: node, srv: rpc.NewServer(lis, mux), content: box}
}

func (p *plane) killShard(s *testShard) {
	s.srv.Close()
	s.node.Stop()
	s.feed.Close()
}

// kill takes shard i down hard (server first, so peers see a dead address).
func (p *plane) kill(i int) {
	p.t.Helper()
	p.killShard(p.shards[i])
	p.shards[i] = nil
}

// restart brings shard i back on its old address with a fresh store and a
// new stream epoch — the in-memory analogue of a process restart.
func (p *plane) restart(i int) {
	p.t.Helper()
	p.shards[i] = p.boot(i, listen(p.t, p.addrs[i]), false)
}

// serving reads the shard's owned ranges and their claims off its Status.
func serving(s *testShard) map[int]uint64 {
	st, _ := s.node.handleStatus(StatusArgs{})
	return st.Serving
}

func serves(s *testShard, rangeID int) bool {
	_, ok := serving(s)[rangeID]
	return ok
}

// keyOn derives a key homing on range r.
func keyOn(place *dht.Placement, r int, salt string, i int) string {
	for j := 0; ; j++ {
		k := fmt.Sprintf("%s-%d-%d", salt, i, j)
		if place.ShardOf(k) == r {
			return k
		}
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(testWait)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestShipApplyAck pins the steady-state pipeline: mutations written on a
// primary arrive in its successor's replica namespace, deletes included,
// and WaitReplicated only returns once the acks cover them.
func TestShipApplyAck(t *testing.T) {
	p := newPlane(t, 2, 2)
	place := dht.NewPlacement(2)
	k0 := keyOn(place, 0, "ship", 0)
	k1 := keyOn(place, 0, "ship", 1)
	if err := p.shards[0].feed.Put("dc_data", k0, []byte("v0")); err != nil {
		t.Fatal(err)
	}
	if err := p.shards[0].feed.Put("dc_data", k1, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := p.shards[0].node.WaitReplicated(testWait); err != nil {
		t.Fatal(err)
	}
	v, ok, err := p.shards[1].node.rstore.Get(nsTable(0, "dc_data"), k0)
	if err != nil || !ok || string(v) != "v0" {
		t.Fatalf("replica row %s = %q %v %v", k0, v, ok, err)
	}
	if err := p.shards[0].feed.Delete("dc_data", k1); err != nil {
		t.Fatal(err)
	}
	if err := p.shards[0].node.WaitReplicated(testWait); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := p.shards[1].node.rstore.Get(nsTable(0, "dc_data"), k1); ok {
		t.Fatalf("deleted row %s still on replica", k1)
	}
}

// TestReplicaRestartResync pins epoch-driven resync: a replica that loses
// all state (process restart) is rebuilt wholesale from a fresh snapshot,
// including rows shipped before it died.
func TestReplicaRestartResync(t *testing.T) {
	p := newPlane(t, 2, 2)
	place := dht.NewPlacement(2)
	kOld := keyOn(place, 0, "old", 0)
	if err := p.shards[0].feed.Put("dc_data", kOld, []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := p.shards[0].node.WaitReplicated(testWait); err != nil {
		t.Fatal(err)
	}
	p.kill(1)
	kMid := keyOn(place, 0, "mid", 0)
	if err := p.shards[0].feed.Put("dc_data", kMid, []byte("mid")); err != nil {
		t.Fatal(err)
	}
	p.restart(1)
	if err := p.shards[0].node.WaitReplicated(testWait); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{kOld, kMid} {
		if _, ok, _ := p.shards[1].node.rstore.Get(nsTable(0, "dc_data"), k); !ok {
			t.Fatalf("row %s missing after resync", k)
		}
	}
	// The restarted shard re-owns its own (unclaimed) range.
	if !serves(p.shards[1], 1) {
		t.Fatal("restarted shard does not serve its own range")
	}
}

// TestPromotion pins failover: when the primary dies, its successor adopts
// the range — replicated rows become live, the ownership claim bumps, the
// gate opens there and stays shut everywhere else.
func TestPromotion(t *testing.T) {
	p := newPlane(t, 3, 2)
	place := dht.NewPlacement(3)
	keys := make([]string, 3)
	for i := range keys {
		keys[i] = keyOn(place, 0, "promo", i)
		if err := p.shards[0].feed.Put("dc_data", keys[i], []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.shards[0].node.WaitReplicated(testWait); err != nil {
		t.Fatal(err)
	}
	succ := place.Successors(0, 2)[1]
	// Split-brain guard: promotion refused while the primary lives.
	if err := p.shards[succ].node.Promote(0); err == nil {
		t.Fatal("promotion succeeded against a live primary")
	}
	p.kill(0)
	if err := p.shards[succ].node.Promote(0); err != nil {
		t.Fatal(err)
	}
	if !serves(p.shards[succ], 0) {
		t.Fatal("promoted shard does not serve the range")
	}
	for i, k := range keys {
		v, ok, err := p.shards[succ].feed.Get("dc_data", k)
		if err != nil || !ok || v[0] != byte(i) {
			t.Fatalf("adopted row %s = %q %v %v", k, v, ok, err)
		}
	}
	if got := serving(p.shards[succ])[0]; got != 1 {
		t.Fatalf("ownership claim = %d, want 1", got)
	}
	// Promote is idempotent on the owner.
	if err := p.shards[succ].node.Promote(0); err != nil {
		t.Fatalf("re-promoting on the owner: %v", err)
	}
	// The third shard still refuses the range.
	var other int
	for i := 1; i < 3; i++ {
		if i != succ {
			other = i
		}
	}
	if err := p.shards[other].node.GateUID(keys[0]); !IsNotOwner(err) {
		t.Fatalf("gate on non-owner = %v", err)
	}
}

// TestRejoinAfterPromotion pins the recovery path: a restarted ex-primary
// finds its range owned elsewhere, stands down (gate shut), and catches up
// as a replica of the new owner's stream.
func TestRejoinAfterPromotion(t *testing.T) {
	p := newPlane(t, 3, 2)
	place := dht.NewPlacement(3)
	k := keyOn(place, 0, "rejoin", 0)
	if err := p.shards[0].feed.Put("dc_data", k, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := p.shards[0].node.WaitReplicated(testWait); err != nil {
		t.Fatal(err)
	}
	succ := place.Successors(0, 2)[1]
	p.kill(0)
	if err := p.shards[succ].node.Promote(0); err != nil {
		t.Fatal(err)
	}
	p.restart(0)
	if serves(p.shards[0], 0) {
		t.Fatal("rejoined shard serves a range it lost (split brain)")
	}
	if err := p.shards[0].node.GateUID(k); !IsNotOwner(err) {
		t.Fatalf("gate on rejoined shard = %v", err)
	}
	// The owner's stream reaches the rejoined shard: a fresh write lands in
	// its replica namespace for the owner.
	k2 := keyOn(place, 0, "rejoin", 1)
	if err := p.shards[succ].feed.Put("dc_data", k2, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "owner stream to reach rejoined shard", func() bool {
		_, ok, _ := p.shards[0].node.rstore.Get(nsTable(succ, "dc_data"), k2)
		return ok
	})
}

// TestContentPull pins pull-based content replication: a locator row
// shipping to a replica triggers a fetch of the datum's bytes, and
// WaitReplicated does not return while pulls are outstanding.
func TestContentPull(t *testing.T) {
	p := newPlane(t, 2, 2)
	place := dht.NewPlacement(2)
	uid := keyOn(place, 0, "blob", 0)
	p.shards[0].content.Put(uid, []byte("payload"))
	if err := p.shards[0].feed.Put("dc_locators", uid, []byte("locator")); err != nil {
		t.Fatal(err)
	}
	if err := p.shards[0].node.WaitReplicated(testWait); err != nil {
		t.Fatal(err)
	}
	c, err := p.shards[1].content.Get(uid)
	if err != nil || string(c) != "payload" {
		t.Fatalf("replica content = %q, %v", c, err)
	}
}

// TestGuardStore pins the ownership gate at the store layer: point
// operations on unowned keys are refused with ErrNotOwner before touching
// state, walks hide unowned rows, and ungated tables pass through.
func TestGuardStore(t *testing.T) {
	p := newPlane(t, 2, 2)
	place := dht.NewPlacement(2)
	mine := keyOn(place, 0, "guard", 0)
	theirs := keyOn(place, 1, "guard", 1)
	g := db.NewGatedStore(p.shards[0].feed, p.shards[0].node.GateUID, "dc_data", "dc_locators")
	if err := g.Put("dc_data", mine, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if err := g.Put("dc_data", theirs, []byte("no")); !IsNotOwner(err) {
		t.Fatalf("Put on unowned key = %v", err)
	}
	if _, _, err := g.Get("dc_data", theirs); !IsNotOwner(err) {
		t.Fatalf("Get on unowned key = %v", err)
	}
	if err := g.Delete("dc_data", theirs); !IsNotOwner(err) {
		t.Fatalf("Delete on unowned key = %v", err)
	}
	// A stale row smuggled under the gate stays invisible to walks.
	if err := p.shards[0].feed.Put("dc_data", theirs, []byte("stale")); err != nil {
		t.Fatal(err)
	}
	keys, err := g.Keys("dc_data")
	if err != nil || len(keys) != 1 || keys[0] != mine {
		t.Fatalf("gated Keys = %v, %v", keys, err)
	}
	seen := 0
	if err := g.Scan("dc_data", func(k string, _ []byte) bool { seen++; return true }); err != nil {
		t.Fatal(err)
	}
	if seen != 1 {
		t.Fatalf("gated Scan visited %d rows, want 1", seen)
	}
	if err := g.Put("ds_entries", theirs, []byte("ungated")); err != nil {
		t.Fatalf("ungated table refused: %v", err)
	}
}

// TestDoubleFailure pins degraded-but-correct behaviour with R=3: after the
// primary AND the first successor die, the second successor still promotes
// and serves every row the original primary replicated.
func TestDoubleFailure(t *testing.T) {
	p := newPlane(t, 4, 3)
	place := dht.NewPlacement(4)
	cands := place.Successors(0, 3)
	k := keyOn(place, 0, "double", 0)
	if err := p.shards[0].feed.Put("dc_data", k, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := p.shards[0].node.WaitReplicated(testWait); err != nil {
		t.Fatal(err)
	}
	p.kill(cands[0])
	p.kill(cands[1])
	last := cands[2]
	if err := p.shards[last].node.Promote(0); err != nil {
		t.Fatal(err)
	}
	v, ok, err := p.shards[last].feed.Get("dc_data", k)
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("row after double failure = %q %v %v", v, ok, err)
	}
}

// TestStatusReportsStream: Status answers each shard's own stream epoch —
// the one its feed stamps on every frame it ships — beside the feed's
// sequence number, over the wire.
func TestStatusReportsStream(t *testing.T) {
	p := newPlane(t, 2, 2)
	for i, s := range p.shards {
		c, err := rpc.Dial(s.addr, rpc.WithCallTimeout(testWait))
		if err != nil {
			t.Fatal(err)
		}
		st, err := NewClient(c).Status()
		c.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.Stream == 0 || st.Stream != s.feed.Epoch() {
			t.Errorf("shard %d: Status.Stream = %d, want the feed's epoch %d", i, st.Stream, s.feed.Epoch())
		}
	}
}
