package repl

import (
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"bitdew/internal/db"
	"bitdew/internal/dht"
	"bitdew/internal/rpc"
)

const (
	tblData     = "dc_data"
	tblLocators = "dc_locators"
)

// moveShard is one real Node over a RowStore behind a FeedStore, wired the
// way the container wires it: services write through the gated store,
// peers ship over a loopback rpc server, and the coordinator drives the
// node by direct dispatch on its Mux.
type moveShard struct {
	node   *Node
	feed   *db.FeedStore
	store  db.Store // the feed behind the ownership gate
	mux    *rpc.Mux
	addr   string
	client *Client

	stop func() // server, node and feed; safe to call twice

	mu      sync.Mutex
	content map[string][]byte
}

func bootShard(t *testing.T, self, shards int) *moveShard {
	t.Helper()
	return bootShardOn(t, self, shards, listen(t, "127.0.0.1:0"), nil)
}

// listen binds addr, retrying while a just-closed listener releases it.
func listen(t *testing.T, addr string) net.Listener {
	t.Helper()
	for attempt := 0; ; attempt++ {
		lis, err := net.Listen("tcp", addr)
		if err == nil {
			return lis
		}
		if attempt == 50 {
			t.Fatalf("binding %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// bootShardOn is bootShard on a given listener (a restart re-listens on the
// old address) with the outbound-dial hook armed (the move stream's
// crash-point tests script faults through it).
func bootShardOn(t *testing.T, self, shards int, lis net.Listener, dialOpts func(addr string) []rpc.DialOption) *moveShard {
	t.Helper()
	feed, err := db.NewFeedStore(db.NewRowStore(), uint64(self+1))
	if err != nil {
		t.Fatal(err)
	}
	s := &moveShard{feed: feed, mux: rpc.NewMux(), content: make(map[string][]byte)}
	srv := rpc.NewServer(lis, s.mux)
	s.addr = srv.Addr()
	// Only this shard's own address is known at boot, as for a joiner whose
	// peers a reshape names later.
	addrs := make([]string, shards)
	addrs[self] = s.addr
	s.node, err = NewNode(Config{
		Shard:         self,
		Addrs:         addrs,
		Feed:          feed,
		GatedTables:   []string{tblData, tblLocators},
		ContentTable:  tblLocators,
		SkipBootCheck: true,
		DialOpts:      dialOpts,
		Logf:          t.Logf,
		GetContent: func(uid string) ([]byte, bool, error) {
			s.mu.Lock()
			defer s.mu.Unlock()
			c, ok := s.content[uid]
			return c, ok, nil
		},
		PutContent: func(uid string, c []byte) error {
			s.mu.Lock()
			defer s.mu.Unlock()
			s.content[uid] = c
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.store = db.NewGatedStore(feed, s.node.GateUID, tblData, tblLocators)
	s.node.Mount(s.mux)
	s.node.Start()
	s.client = NewClient(rpc.NewLocalClient(s.mux, 0))
	s.stop = func() {
		srv.Close()
		s.node.Stop()
		feed.Close()
	}
	t.Cleanup(s.stop)
	return s
}

// testPlane is an n-shard plane with rows on every shard, some of which
// move under n→n+1 and n→n-1.
type testPlane struct {
	shards []*moveShard
	keys   []string
}

func bootPlane(t *testing.T, n int) *testPlane {
	t.Helper()
	return bootPlaneWith(t, n, nil)
}

// bootPlaneWith arms shard `from`'s outbound dials with dialOpts(from, addr).
func bootPlaneWith(t *testing.T, n int, dialOpts func(from int, addr string) []rpc.DialOption) *testPlane {
	t.Helper()
	p := &testPlane{}
	for i := 0; i < n; i++ {
		var hook func(addr string) []rpc.DialOption
		if dialOpts != nil {
			from := i
			hook = func(addr string) []rpc.DialOption { return dialOpts(from, addr) }
		}
		p.shards = append(p.shards, bootShardOn(t, i, n, listen(t, "127.0.0.1:0"), hook))
	}
	place := dht.NewPlacement(n)
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("datum-%03d", i)
		home := p.shards[place.ShardOf(k)]
		if err := home.store.Put(tblData, k, []byte("row "+k)); err != nil {
			t.Fatal(err)
		}
		home.content[k] = []byte("bytes of " + k)
		if err := home.store.Put(tblLocators, k, []byte("locators of "+k)); err != nil {
			t.Fatal(err)
		}
		p.keys = append(p.keys, k)
	}
	return p
}

// with returns the plane's shards followed by a joiner.
func (p *testPlane) with(joiner *moveShard) []*moveShard {
	return append(append([]*moveShard(nil), p.shards...), joiner)
}

func clients(shards []*moveShard) []*Client {
	out := make([]*Client, len(shards))
	for i, s := range shards {
		out[i] = s.client
	}
	return out
}

func addrs(shards []*moveShard) []string {
	out := make([]string, len(shards))
	for i, s := range shards {
		out[i] = s.addr
	}
	return out
}

// grow runs Grow of the plane onto joiner at epoch 2.
func (p *testPlane) grow(joiner *moveShard) (bool, error) {
	all := p.with(joiner)
	return Grow(clients(all), addrs(all), 2)
}

// movingFrom returns the keys that leave shard `from` when the plane goes
// from its current size to next shards; the test data must exercise it.
func (p *testPlane) movingFrom(t *testing.T, from, next int) []string {
	t.Helper()
	old, grown := dht.NewPlacement(len(p.shards)), dht.NewPlacement(next)
	var out []string
	for _, k := range p.keys {
		if old.ShardOf(k) == from && grown.ShardOf(k) != from {
			out = append(out, k)
		}
	}
	if len(out) == 0 {
		t.Fatalf("test data has no key leaving shard %d under %d→%d", from, len(p.shards), next)
	}
	return out
}

// assertUnchanged checks an aborted change left no trace: nobody staging,
// nobody past epoch 1, every key still served by its original home.
func (p *testPlane) assertUnchanged(t *testing.T) {
	t.Helper()
	place := dht.NewPlacement(len(p.shards))
	for i, s := range p.shards {
		st, err := s.client.Status()
		if err != nil {
			t.Fatal(err)
		}
		if st.Staging || st.Epoch != 1 || st.Shards != len(p.shards) {
			t.Fatalf("shard %d after abort: %+v", i, st)
		}
	}
	for _, k := range p.keys {
		v, ok, err := p.shards[place.ShardOf(k)].store.Get(tblData, k)
		if err != nil || !ok || string(v) != "row "+k {
			t.Fatalf("key %s no longer served by its source: %q %v %v", k, v, ok, err)
		}
	}
}

// assertServedUnder checks every row, and its content, is served by exactly
// its home among shards under their committed placement.
func assertServedUnder(t *testing.T, keys []string, shards []*moveShard) {
	t.Helper()
	place := dht.NewPlacement(len(shards))
	for _, k := range keys {
		for i, s := range shards {
			v, ok, err := s.store.Get(tblData, k)
			if i != place.ShardOf(k) {
				if !IsNotOwner(err) {
					t.Fatalf("shard %d answers for %s homed on %d: %q %v", i, k, place.ShardOf(k), v, err)
				}
				continue
			}
			if err != nil || !ok || string(v) != "row "+k {
				t.Fatalf("shard %d lost row %s: %q %v %v", i, k, v, ok, err)
			}
			s.mu.Lock()
			c := string(s.content[k])
			s.mu.Unlock()
			if c != "bytes of "+k {
				t.Fatalf("shard %d holds content %q for %s", i, c, k)
			}
		}
	}
}

// refuseOnce scripts one refusal of a protocol method; the shard answers
// for itself again from the next call on.
func refuseOnce(s *moveShard, method string) {
	s.mux.Handle(ServiceName, method, func([]byte) ([]byte, error) {
		s.node.Mount(s.mux)
		return nil, errors.New("scripted refusal")
	})
}

func TestGrowMovesRangesAndCommitsEverywhere(t *testing.T) {
	p := bootPlane(t, 2)
	joiner := bootShard(t, 2, 3)
	for from := range p.shards {
		p.movingFrom(t, from, 3)
	}
	committed, err := p.grow(joiner)
	if !committed || err != nil {
		t.Fatalf("Grow = %v, %v", committed, err)
	}
	all := p.with(joiner)
	for i, s := range all {
		st, err := s.client.Status()
		if err != nil || st.Epoch != 2 || st.Shards != 3 || st.Staging {
			t.Fatalf("shard %d after grow: %+v, %v", i, st, err)
		}
	}
	assertServedUnder(t, p.keys, all)
}

// TestGrowRefusesMisplacedJoiner: the joiner must already believe the grown
// placement, or its gate would hide the rows it is handed for ever.
func TestGrowRefusesMisplacedJoiner(t *testing.T) {
	p := bootPlane(t, 2)
	joiner := bootShard(t, 0, 1)
	committed, err := p.grow(joiner)
	if committed || err == nil {
		t.Fatalf("Grow onto a shard 0 of 1 = %v, %v", committed, err)
	}
	p.assertUnchanged(t)
}

// TestGrowStageFailureAborts: source 1's stream is refused by the joiner,
// so its stage fails after source 0 staged fine. Every source must be
// aborted, nothing committed, and the same change must then go through.
func TestGrowStageFailureAborts(t *testing.T) {
	p := bootPlane(t, 2)
	joiner := bootShard(t, 2, 3)
	p.movingFrom(t, 1, 3)
	rpc.Register(joiner.mux, ServiceName, "Sync", func(a SyncArgs) (SyncReply, error) {
		if a.Shard == 1 {
			return SyncReply{}, errors.New("scripted refusal")
		}
		return joiner.node.handleSync(a)
	})
	committed, err := p.grow(joiner)
	if committed || err == nil || !strings.Contains(err.Error(), "shard 1 stage") {
		t.Fatalf("Grow with a failing stage = %v, %v", committed, err)
	}
	p.assertUnchanged(t)
	if st, _ := joiner.client.Status(); st.Epoch != 1 {
		t.Fatalf("joiner committed an aborted change: %+v", st)
	}

	joiner.node.Mount(joiner.mux)
	committed, err = p.grow(joiner)
	if !committed || err != nil {
		t.Fatalf("re-run after abort = %v, %v", committed, err)
	}
	assertServedUnder(t, p.keys, p.with(joiner))
}

// TestGrowCutoverFailureAborts: source 0 has cut over — its departure gate
// is engaged — when source 1 refuses. The abort must disengage source 0's
// gate again, or its moving keys would be served by nobody.
func TestGrowCutoverFailureAborts(t *testing.T) {
	p := bootPlane(t, 2)
	joiner := bootShard(t, 2, 3)
	moving := p.movingFrom(t, 0, 3)
	refuseOnce(p.shards[1], "Cutover")
	committed, err := p.grow(joiner)
	if committed || err == nil || !strings.Contains(err.Error(), "shard 1 cutover") {
		t.Fatalf("Grow with a failing cutover = %v, %v", committed, err)
	}
	p.assertUnchanged(t)
	if err := p.shards[0].node.GateUID(moving[0]); err != nil {
		t.Fatalf("source 0 still gates %s after the abort: %v", moving[0], err)
	}

	committed, err = p.grow(joiner)
	if !committed || err != nil {
		t.Fatalf("re-run after abort = %v, %v", committed, err)
	}
	assertServedUnder(t, p.keys, p.with(joiner))
}

// TestAbortedStageCannotResurrectADeletedDatum: source 0 stages a moving
// key onto the joiner, the change aborts (source 1 refuses its cutover), the
// key is deleted at its source, and the change is run again. The re-stage's
// snapshot no longer carries the key, so the committed joiner must not serve
// it — which holds because staged rows sit in the joiner's namespace, which a
// re-stage replaces wholesale, and never in its live store.
func TestAbortedStageCannotResurrectADeletedDatum(t *testing.T) {
	p := bootPlane(t, 2)
	joiner := bootShard(t, 2, 3)
	gone := p.movingFrom(t, 0, 3)[0]
	refuseOnce(p.shards[1], "Cutover")
	if committed, err := p.grow(joiner); committed || err == nil {
		t.Fatalf("Grow with a failing cutover = %v, %v", committed, err)
	}
	for _, tbl := range []string{tblData, tblLocators} {
		if err := p.shards[0].store.Delete(tbl, gone); err != nil {
			t.Fatal(err)
		}
	}
	if committed, err := p.grow(joiner); !committed || err != nil {
		t.Fatalf("re-run after abort = %v, %v", committed, err)
	}
	for _, tbl := range []string{tblData, tblLocators} {
		if v, ok, err := joiner.store.Get(tbl, gone); err != nil || ok {
			t.Fatalf("deleted %s/%s resurrected on its new home: %q %v", tbl, gone, v, err)
		}
	}
	var kept []string
	for _, k := range p.keys {
		if k != gone {
			kept = append(kept, k)
		}
	}
	assertServedUnder(t, kept, p.with(joiner))
}

// TestCommitFailureStillCommitsTheOthers: past the cutovers there is no way
// back, so one shard refusing the commit must not stop the rest.
func TestCommitFailureStillCommitsTheOthers(t *testing.T) {
	p := bootPlane(t, 2)
	joiner := bootShard(t, 2, 3)
	refuseOnce(p.shards[0], "Commit")
	committed, err := p.grow(joiner)
	if !committed || err == nil || !strings.Contains(err.Error(), "shard 0 commit") {
		t.Fatalf("Grow with a failing commit = %v, %v", committed, err)
	}
	for _, s := range []*moveShard{p.shards[1], joiner} {
		if st, _ := s.client.Status(); st.Epoch != 2 || st.Shards != 3 {
			t.Fatalf("shard %d did not commit past shard 0's refusal: %+v", st.Self, st)
		}
	}
	// The straggler adopts the membership when the commit reaches it.
	if err := p.shards[0].client.Commit(2, addrs(p.with(joiner))); err != nil {
		t.Fatal(err)
	}
	assertServedUnder(t, p.keys, p.with(joiner))
}

// TestGainerCommitFailureHoldsTheSources: the joiner refuses its commit, so
// the moved rows are live nowhere but on their sources — which must then not
// be asked to commit (and garbage-collect them) at all. Once the commit
// reaches the joiner, then the sources, the change completes.
func TestGainerCommitFailureHoldsTheSources(t *testing.T) {
	p := bootPlane(t, 2)
	joiner := bootShard(t, 2, 3)
	grown := addrs(p.with(joiner))
	refuseOnce(joiner, "Commit")
	committed, err := p.grow(joiner)
	if !committed || err == nil || !strings.Contains(err.Error(), "shard 2 commit") {
		t.Fatalf("Grow with the joiner refusing its commit = %v, %v", committed, err)
	}
	for i, s := range p.shards {
		if st, _ := s.client.Status(); st.Epoch != 1 || !st.Staging {
			t.Fatalf("source %d was committed past the joiner's refusal: %+v", i, st)
		}
		for _, k := range p.movingFrom(t, i, 3) {
			if _, ok, _ := s.feed.Get(tblData, k); !ok {
				t.Fatalf("source %d dropped %s before the joiner adopted it", i, k)
			}
		}
	}
	for _, s := range []*moveShard{joiner, p.shards[0], p.shards[1]} {
		if err := s.client.Commit(2, grown); err != nil {
			t.Fatal(err)
		}
	}
	assertServedUnder(t, p.keys, p.with(joiner))
}

// TestDrainCommitsTheDrainedShardLast: until the survivors have adopted the
// shrunk membership, the drained shard is the only one clients can still be
// pointed at for the moved ranges' new homes.
func TestDrainCommitsTheDrainedShardLast(t *testing.T) {
	p := bootPlane(t, 3)
	p.movingFrom(t, 2, 2)
	var (
		mu    sync.Mutex
		order []int
	)
	for i, s := range p.shards {
		i, s := i, s
		rpc.Register(s.mux, ServiceName, "Commit", func(a CommitArgs) (CommitReply, error) {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			return CommitReply{}, s.node.Commit(a.Epoch, a.Addrs)
		})
	}
	committed, err := Drain(clients(p.shards), addrs(p.shards[:2]), 2)
	if !committed || err != nil {
		t.Fatalf("Drain = %v, %v", committed, err)
	}
	if fmt.Sprint(order) != "[0 1 2]" {
		t.Fatalf("commit order %v, want the drained shard 2 last", order)
	}
	assertServedUnder(t, p.keys, p.shards[:2])
	for _, k := range p.keys {
		if _, _, err := p.shards[2].store.Get(tblData, k); !IsNotOwner(err) {
			t.Fatalf("drained shard still answers for %s: %v", k, err)
		}
	}
}

func TestDrainRefusesTheLastShard(t *testing.T) {
	p := bootPlane(t, 1)
	if committed, err := Drain(clients(p.shards), nil, 2); committed || err == nil {
		t.Fatalf("Drain of a one-shard plane = %v, %v", committed, err)
	}
	p.assertUnchanged(t)
}

// TestPersistedStateFormatPinned: the committed membership a node stores is
// these bytes — fingerprint, then the two varints — so a silent change of
// format trips here, and a node booted over the row recovers it.
func TestPersistedStateFormatPinned(t *testing.T) {
	s := bootShard(t, 0, 2)
	s.node.persistState(300, 3)
	got, ok, err := s.feed.Get(tableState, stateKey)
	if want := "6697c2d5ac0206"; err != nil || !ok || hex.EncodeToString(got) != want {
		t.Fatalf("stored state: found %v, %v, bytes %x, want %s", ok, err, got, want)
	}
	re, err := NewNode(Config{Shard: 0, Addrs: make([]string, 3), Feed: s.feed})
	if err != nil || re.Epoch() != 300 {
		t.Fatalf("recovered epoch %d (want 300), %v", re.Epoch(), err)
	}
}

// TestEarlierFormatStateIsRefused: the state row of a directory written
// before the schema codec (a standalone gob blob of the same struct, epoch
// 4) fails the boot by fingerprint; it is neither misread nor skipped.
func TestEarlierFormatStateIsRefused(t *testing.T) {
	s := bootShard(t, 0, 2)
	old, err := hex.DecodeString("307f0301010e706572736973746564537461746501ff80000102010545706f63680106000106536861726473010400000007ff800104010600")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.feed.Put(tableState, stateKey, old); err != nil {
		t.Fatal(err)
	}
	if _, err := NewNode(Config{Shard: 0, Addrs: make([]string, 3), Feed: s.feed}); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("boot over an earlier commit's state row = %v, want a fingerprint refusal", err)
	}
}
