package scheduler

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"bitdew/internal/attr"
	"bitdew/internal/data"
	"bitdew/internal/rpc"
)

// fakeClock is an adjustable clock for deterministic lifetime/failure tests.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 6, 11, 0, 0, 0, 0, time.UTC)}
}
func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newTestService() (*Service, *fakeClock) {
	s := New()
	c := newFakeClock()
	s.SetClock(c.now)
	return s, c
}
func mkdata(name string) data.Data { return *data.NewFromBytes(name, []byte(name)) }
func uids(as []Assignment) map[data.UID]bool {
	m := map[data.UID]bool{}
	for _, a := range as {
		m[a.Data.UID] = true
	}
	return m
}

func TestReplicaScheduling(t *testing.T) {
	s, _ := newTestService()
	d := mkdata("file")
	if err := s.Schedule(d, attr.Attribute{Name: "a", Replica: 2}); err != nil {
		t.Fatal(err)
	}
	// First host gets it.
	r := s.Sync("h1", nil)
	if len(r.Fetch) != 1 || r.Fetch[0].Data.UID != d.UID {
		t.Fatalf("h1 fetch = %+v", r.Fetch)
	}
	// Second host gets the second replica.
	r = s.Sync("h2", nil)
	if len(r.Fetch) != 1 {
		t.Fatalf("h2 fetch = %+v", r.Fetch)
	}
	// Third host does not: replica satisfied.
	r = s.Sync("h3", nil)
	if len(r.Fetch) != 0 {
		t.Fatalf("h3 fetch = %+v (replica over-provisioned)", r.Fetch)
	}
	if got := len(s.Owners(d.UID)); got != 2 {
		t.Errorf("owners = %d, want 2", got)
	}
}

func TestBroadcastReplica(t *testing.T) {
	s, _ := newTestService()
	d := mkdata("app")
	s.Schedule(d, attr.Attribute{Name: "Application", Replica: attr.ReplicaAll})
	for i := 0; i < 10; i++ {
		r := s.Sync(fmt.Sprintf("h%d", i), nil)
		if len(r.Fetch) != 1 {
			t.Fatalf("host %d did not receive broadcast: %+v", i, r.Fetch)
		}
	}
}

func TestCacheValidation(t *testing.T) {
	s, _ := newTestService()
	d := mkdata("f")
	s.Schedule(d, attr.Attribute{Name: "a", Replica: 1})
	r := s.Sync("h1", nil)
	if len(r.Fetch) != 1 {
		t.Fatal("no assignment")
	}
	// Host now reports the datum cached: kept, not re-fetched.
	r = s.Sync("h1", []data.UID{d.UID})
	if len(r.Keep) != 1 || len(r.Fetch) != 0 || len(r.Drop) != 0 {
		t.Fatalf("second sync = %+v", r)
	}
	// Unknown cached data are dropped.
	stranger := data.NewUID()
	r = s.Sync("h1", []data.UID{d.UID, stranger})
	if len(r.Drop) != 1 || r.Drop[0] != stranger {
		t.Fatalf("Drop = %v", r.Drop)
	}
}

func TestAbsoluteLifetime(t *testing.T) {
	s, clock := newTestService()
	d := mkdata("ttl")
	s.Schedule(d, attr.Attribute{Name: "a", Replica: 1, LifetimeAbs: 10 * time.Second})
	r := s.Sync("h1", nil)
	if len(r.Fetch) != 1 {
		t.Fatal("no assignment")
	}
	clock.advance(11 * time.Second)
	// Expired: host must drop it, and no new host receives it.
	r = s.Sync("h1", []data.UID{d.UID})
	if len(r.Drop) != 1 || len(r.Keep) != 0 {
		t.Fatalf("after expiry = %+v", r)
	}
	r = s.Sync("h2", nil)
	if len(r.Fetch) != 0 {
		t.Fatalf("expired datum assigned: %+v", r.Fetch)
	}
	if n := s.GC(); n != 1 {
		t.Errorf("GC removed %d, want 1", n)
	}
}

func TestRelativeLifetime(t *testing.T) {
	s, _ := newTestService()
	collector := mkdata("Collector")
	result := mkdata("result-1")
	s.Pin(collector, attr.Attribute{Name: "Collector"}, "master")
	s.Schedule(result, attr.Attribute{Name: "Result", Replica: 1, LifetimeRel: "Collector"})
	r := s.Sync("h1", nil)
	if len(r.Fetch) != 1 {
		t.Fatalf("fetch = %+v", r.Fetch)
	}
	// Deleting the Collector obsoletes the Result (the BLAST cleanup idiom).
	if err := s.Unschedule(collector.UID); err != nil {
		t.Fatal(err)
	}
	r = s.Sync("h1", []data.UID{result.UID})
	if len(r.Drop) != 1 || r.Drop[0] != result.UID {
		t.Fatalf("after collector deletion = %+v", r)
	}
	if s.GC() == 0 {
		t.Error("GC did not purge the orphaned result")
	}
}

func TestAffinityPlacement(t *testing.T) {
	s, _ := newTestService()
	seq := mkdata("Sequence")
	gene := mkdata("Genebase")
	s.Schedule(seq, attr.Attribute{Name: "Sequence", Replica: 1})
	s.Schedule(gene, attr.Attribute{Name: "Genebase", Replica: 1, Affinity: "Sequence"})

	// h1 receives the sequence (and, affinity chaining within one sync,
	// possibly the genebase too).
	r := s.Sync("h1", nil)
	got := uids(r.Fetch)
	if !got[seq.UID] {
		t.Fatalf("h1 did not get sequence: %+v", r.Fetch)
	}
	if !got[gene.UID] {
		// Genebase follows at the next sync at the latest.
		r = s.Sync("h1", []data.UID{seq.UID})
		if !uids(r.Fetch)[gene.UID] {
			t.Fatalf("genebase did not follow sequence: %+v", r.Fetch)
		}
	}
	// A host without the sequence never receives the genebase.
	r = s.Sync("h2", nil)
	if uids(r.Fetch)[gene.UID] {
		t.Fatalf("genebase scheduled to host without sequence")
	}
}

func TestAffinityStrongerThanReplica(t *testing.T) {
	// Paper §3.2: if A is replicated on rn nodes and B has affinity to A,
	// B is replicated to all rn nodes regardless of B's replica value.
	s, _ := newTestService()
	a := mkdata("A")
	b := mkdata("B")
	s.Schedule(a, attr.Attribute{Name: "A", Replica: 3})
	s.Schedule(b, attr.Attribute{Name: "B", Replica: 1, Affinity: "A"})
	hosts := []string{"h1", "h2", "h3"}
	caches := map[string][]data.UID{}
	for round := 0; round < 3; round++ {
		for _, h := range hosts {
			r := s.Sync(h, caches[h])
			for _, f := range r.Fetch {
				caches[h] = append(caches[h], f.Data.UID)
			}
		}
	}
	for _, h := range hosts {
		hasB := false
		for _, uid := range caches[h] {
			if uid == b.UID {
				hasB = true
			}
		}
		if !hasB {
			t.Errorf("host %s holds A but not B (affinity must override replica)", h)
		}
	}
}

func TestFaultToleranceRescheduling(t *testing.T) {
	s, clock := newTestService()
	s.Timeout = 3 * time.Second
	d := mkdata("ft")
	s.Schedule(d, attr.Attribute{Name: "a", Replica: 1, FaultTolerant: true})
	r := s.Sync("h1", nil)
	if len(r.Fetch) != 1 {
		t.Fatal("no assignment")
	}
	s.Sync("h1", []data.UID{d.UID}) // h1 confirms ownership
	// h1 goes silent; h2 keeps syncing. After the timeout the datum is
	// rescheduled to h2.
	clock.advance(2 * time.Second)
	r = s.Sync("h2", nil)
	if len(r.Fetch) != 0 {
		t.Fatal("rescheduled before timeout")
	}
	clock.advance(2 * time.Second) // h1 now 4s silent > 3s timeout
	r = s.Sync("h2", nil)
	if len(r.Fetch) != 1 || r.Fetch[0].Data.UID != d.UID {
		t.Fatalf("not rescheduled after owner failure: %+v", r.Fetch)
	}
}

func TestNonFaultTolerantNotRescheduled(t *testing.T) {
	s, clock := newTestService()
	s.Timeout = 3 * time.Second
	d := mkdata("fragile")
	s.Schedule(d, attr.Attribute{Name: "a", Replica: 1, FaultTolerant: false})
	s.Sync("h1", nil)
	s.Sync("h1", []data.UID{d.UID})
	clock.advance(10 * time.Second)
	r := s.Sync("h2", nil)
	if len(r.Fetch) != 0 {
		t.Fatalf("non-FT datum rescheduled after host silence: %+v", r.Fetch)
	}
}

func TestPinnedOwnerNeverExpires(t *testing.T) {
	s, clock := newTestService()
	s.Timeout = time.Second
	d := mkdata("pinned")
	s.Pin(d, attr.Attribute{Name: "a", Replica: 1, FaultTolerant: true}, "master")
	clock.advance(time.Hour)
	r := s.Sync("worker", nil)
	if len(r.Fetch) != 0 {
		t.Fatalf("pinned datum rescheduled away from silent master: %+v", r.Fetch)
	}
	if got := s.Owners(d.UID); len(got) != 1 || got[0] != "master" {
		t.Errorf("Owners = %v", got)
	}
}

func TestMaxDataSchedule(t *testing.T) {
	s, _ := newTestService()
	s.MaxDataSchedule = 3
	for i := 0; i < 10; i++ {
		s.Schedule(mkdata(fmt.Sprintf("d%d", i)), attr.Attribute{Name: "a", Replica: 1})
	}
	r := s.Sync("h1", nil)
	if len(r.Fetch) != 3 {
		t.Fatalf("fetch = %d, want MaxDataSchedule=3", len(r.Fetch))
	}
	// Next sync brings the next batch.
	cache := make([]data.UID, 0)
	for _, f := range r.Fetch {
		cache = append(cache, f.Data.UID)
	}
	r = s.Sync("h1", cache)
	if len(r.Fetch) != 3 {
		t.Fatalf("second batch = %d", len(r.Fetch))
	}
}

func TestUnscheduleUnknown(t *testing.T) {
	s, _ := newTestService()
	if err := s.Unschedule("ghost"); err == nil {
		t.Error("Unschedule of unknown datum succeeded")
	}
}

func TestRescheduleUpdatesAttribute(t *testing.T) {
	s, _ := newTestService()
	d := mkdata("d")
	s.Schedule(d, attr.Attribute{Name: "a", Replica: 1})
	s.Sync("h1", nil)
	// Dynamically raise replication (the paper's §5 strategy for idle hosts).
	s.Schedule(d, attr.Attribute{Name: "a", Replica: 2})
	r := s.Sync("h2", nil)
	if len(r.Fetch) != 1 {
		t.Fatalf("raised replica not honoured: %+v", r.Fetch)
	}
}

func TestScheduleRejectsInvalidAttr(t *testing.T) {
	s, _ := newTestService()
	if err := s.Schedule(mkdata("x"), attr.Attribute{Name: "a", Replica: -5}); err == nil {
		t.Error("invalid attribute accepted")
	}
}

func TestHostsTracking(t *testing.T) {
	s, clock := newTestService()
	s.Timeout = 3 * time.Second
	s.Sync("h1", nil)
	s.Sync("h2", nil)
	if got := len(s.Hosts()); got != 2 {
		t.Fatalf("Hosts = %d", got)
	}
	clock.advance(5 * time.Second)
	s.Sync("h2", nil)
	if got := s.Hosts(); len(got) != 1 || got[0] != "h2" {
		t.Fatalf("Hosts after timeout = %v", got)
	}
}

func TestQuickSyncInvariants(t *testing.T) {
	// Properties over random scheduling sequences:
	//  1. Fetch never exceeds MaxDataSchedule.
	//  2. Keep ∪ Drop == submitted cache (partition).
	//  3. Fetch ∩ cache = ∅.
	f := func(seed uint8, cacheSel []bool) bool {
		s, _ := newTestService()
		s.MaxDataSchedule = int(seed%5) + 1
		var all []data.Data
		for i := 0; i < 12; i++ {
			d := mkdata(fmt.Sprintf("d%d", i))
			all = append(all, d)
			a := attr.Attribute{Name: fmt.Sprintf("a%d", i), Replica: int(seed)%3 + 1}
			if i%4 == 0 {
				a.Replica = attr.ReplicaAll
			}
			s.Schedule(d, a)
		}
		var cache []data.UID
		for i, b := range cacheSel {
			if b && i < len(all) {
				cache = append(cache, all[i].UID)
			}
		}
		r := s.Sync("h", cache)
		if len(r.Fetch) > s.MaxDataSchedule {
			return false
		}
		if len(r.Keep)+len(r.Drop) != len(cache) {
			return false
		}
		inCache := map[data.UID]bool{}
		for _, uid := range cache {
			inCache[uid] = true
		}
		for _, f := range r.Fetch {
			if inCache[f.Data.UID] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSchedulerOverRPC(t *testing.T) {
	s, _ := newTestService()
	mux := rpc.NewMux()
	s.Mount(mux)
	srv, err := rpc.Listen("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rcl, err := rpc.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rcl.Close()
	c := NewClient(rcl)

	d := mkdata("remote")
	if err := c.Schedule(d, attr.Attribute{Name: "a", Replica: 1}); err != nil {
		t.Fatal(err)
	}
	r, err := c.SyncDelta(SyncDeltaArgs{Host: "h1", Full: true})
	if err != nil || len(r.Fetch) != 1 {
		t.Fatalf("SyncDelta = %+v, %v", r, err)
	}
	owners, err := c.Owners(d.UID)
	if err != nil || len(owners) != 1 {
		t.Fatalf("Owners = %v, %v", owners, err)
	}
	pin := mkdata("pinned")
	if err := c.Pin(pin, attr.Attribute{Name: "p"}, "master"); err != nil {
		t.Fatal(err)
	}
	if err := c.Unschedule(d.UID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GC(); err != nil {
		t.Fatal(err)
	}
}

func TestClientOnlyHostSkipsReplicaPlacement(t *testing.T) {
	s, _ := newTestService()
	d := mkdata("bulk")
	s.Schedule(d, attr.Attribute{Name: "a", Replica: attr.ReplicaAll})
	r := s.SyncAs("client-1", nil, true)
	if len(r.Fetch) != 0 {
		t.Fatalf("client host received broadcast datum: %+v", r.Fetch)
	}
	// Affinity to a pinned datum still routes to the client.
	col := mkdata("Collector")
	s.Pin(col, attr.Attribute{Name: "Collector"}, "client-1")
	res := mkdata("result-1")
	s.Schedule(res, attr.Attribute{Name: "Result", Replica: 1, Affinity: string(col.UID)})
	r = s.SyncAs("client-1", []data.UID{col.UID}, true)
	if len(r.Fetch) != 1 || r.Fetch[0].Data.UID != res.UID {
		t.Fatalf("affinity datum not routed to client: %+v", r.Fetch)
	}
}

func TestStaleOwnershipReconciled(t *testing.T) {
	// A host assigned a datum whose download then fails reports a cache
	// without it at the next sync; the stale ownership must be withdrawn
	// and the datum re-offered (paper's replica counts track live copies).
	s, _ := newTestService()
	d := mkdata("flaky")
	s.Schedule(d, attr.Attribute{Name: "a", Replica: 1})
	r := s.Sync("h1", nil)
	if len(r.Fetch) != 1 {
		t.Fatal("no assignment")
	}
	// h1's download failed: it syncs again with an empty cache and must be
	// offered the datum again.
	r = s.Sync("h1", nil)
	if len(r.Fetch) != 1 || r.Fetch[0].Data.UID != d.UID {
		t.Fatalf("failed download not re-offered: %+v", r.Fetch)
	}
	// A different host syncing while h1 stays silent can also take it
	// (h1's stale ownership was dropped, freeing the replica slot)...
	r = s.Sync("h2", nil)
	if len(r.Fetch) != 0 {
		// h1 re-claimed it above, so h2 gets nothing; drop h1's claim by
		// syncing h1 empty-cached again, then h2 must receive it.
		t.Fatalf("h2 fetch = %+v", r.Fetch)
	}
	s.Sync("h1", nil) // h1 still failing
	// h1 holds the claim again; kill it via another empty sync from h1 and
	// immediately offer to h2? The claim belongs to whoever synced last.
	r = s.Sync("h2", nil)
	if len(r.Fetch) != 0 {
		t.Fatalf("h2 should not fetch while h1 holds a fresh claim: %+v", r.Fetch)
	}
}

func TestPinnedOwnershipNotReconciledAway(t *testing.T) {
	s, _ := newTestService()
	d := mkdata("pinned")
	s.Pin(d, attr.Attribute{Name: "a", Replica: 1}, "master")
	// Master syncs with an empty cache (e.g. before adopting the datum
	// locally); pinned ownership must survive.
	s.Sync("master", nil)
	owners := s.Owners(d.UID)
	if len(owners) != 1 || owners[0] != "master" {
		t.Fatalf("pinned ownership lost: %v", owners)
	}
}

// TestQuickChurnReplicaInvariant drives random churn (hosts joining,
// crashing, syncing in arbitrary order) against a fault-tolerant datum and
// checks the system invariant: once churn stops and the survivors keep
// syncing past the failure timeout, the live owner count converges to
// min(replica, live hosts) and every recorded owner is a live host.
func TestQuickChurnReplicaInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, clock := newTestService()
		s.Timeout = 3 * time.Second
		replica := rng.Intn(4) + 1
		d := mkdata("churny")
		s.Schedule(d, attr.Attribute{Name: "a", Replica: replica, FaultTolerant: true})

		hosts := []string{"h0", "h1", "h2", "h3", "h4", "h5"}
		alive := map[string]bool{}
		caches := map[string][]data.UID{}
		sync := func(h string) {
			r := s.Sync(h, caches[h])
			next := append([]data.UID(nil), r.Keep...)
			for _, f := range r.Fetch {
				next = append(next, f.Data.UID)
			}
			caches[h] = next
		}
		// Churn phase: random joins, crashes and syncs.
		for step := 0; step < 60; step++ {
			h := hosts[rng.Intn(len(hosts))]
			switch rng.Intn(4) {
			case 0:
				alive[h] = true
			case 1:
				alive[h] = false
				caches[h] = nil
			default:
				if alive[h] {
					sync(h)
				}
			}
			clock.advance(time.Duration(rng.Intn(1500)) * time.Millisecond)
		}
		// Settle: survivors sync repeatedly past the timeout.
		var live []string
		for _, h := range hosts {
			if alive[h] {
				live = append(live, h)
			}
		}
		if len(live) == 0 {
			return true // nobody left; nothing to check
		}
		for round := 0; round < 8; round++ {
			for _, h := range live {
				sync(h)
			}
			clock.advance(time.Second)
		}
		owners := s.Owners(d.UID)
		want := replica
		if len(live) < want {
			want = len(live)
		}
		// §3.2: at least `replica` live owners must exist, but the runtime
		// never deletes excess replicas, so transient churn may leave more
		// — bounded by the live population.
		if len(owners) < want || len(owners) > len(live) {
			t.Logf("seed %d: owners %v, want %d..%d of %v", seed, owners, want, len(live), live)
			return false
		}
		liveSet := map[string]bool{}
		for _, h := range live {
			liveSet[h] = true
		}
		for _, o := range owners {
			if !liveSet[o] {
				t.Logf("seed %d: dead owner %s", seed, o)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
