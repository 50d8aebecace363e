package scheduler

import (
	"fmt"
	"testing"

	"bitdew/internal/attr"
	"bitdew/internal/data"
	"bitdew/internal/rpc"
)

// TestSyncDeltaEquivalence: driving a host through delta heartbeats reaches
// the same Ψ as full-set syncs, while the payload after the first report is
// only the Δ.
func TestSyncDeltaEquivalence(t *testing.T) {
	s, _ := newTestService()
	var all []data.Data
	for i := 0; i < 12; i++ {
		d := mkdata(fmt.Sprintf("d%02d", i))
		all = append(all, d)
		if err := s.Schedule(d, attr.Attribute{Name: "a", Replica: 1}); err != nil {
			t.Fatal(err)
		}
	}

	// First heartbeat: full report of an empty cache.
	r := s.SyncDelta("h1", 0, true, nil, nil, false)
	if r.Resync {
		t.Fatal("full report answered with Resync")
	}
	if len(r.Fetch) != DefaultMaxDataSchedule {
		t.Fatalf("fetch = %d, want MaxDataSchedule", len(r.Fetch))
	}
	cache := map[data.UID]bool{}
	var added []data.UID
	for _, f := range r.Fetch {
		cache[f.Data.UID] = true
		added = append(added, f.Data.UID)
	}

	// Second heartbeat: only the adds travel.
	r = s.SyncDelta("h1", r.Epoch, false, added, nil, false)
	if r.Resync {
		t.Fatal("delta with matching epoch answered with Resync")
	}
	if len(r.Keep) != len(added) {
		t.Errorf("keep = %d, want %d", len(r.Keep), len(added))
	}
	for _, f := range r.Fetch {
		cache[f.Data.UID] = true
	}
	if len(cache) != len(all) {
		t.Errorf("converged to %d data, want %d", len(cache), len(all))
	}
}

func TestSyncDeltaEpochMismatchResyncs(t *testing.T) {
	s, _ := newTestService()
	d := mkdata("x")
	s.Schedule(d, attr.Attribute{Name: "a", Replica: 1})

	r := s.SyncDelta("h1", 0, true, nil, nil, false)
	if r.Resync || len(r.Fetch) != 1 {
		t.Fatalf("first sync: %+v", r)
	}
	// Stale epoch (e.g. a lost ack): server refuses the delta.
	stale := s.SyncDelta("h1", r.Epoch+7, false, nil, nil, false)
	if !stale.Resync {
		t.Fatal("stale epoch not answered with Resync")
	}
	if len(stale.Fetch) != 0 && len(stale.Keep) != 0 && len(stale.Drop) != 0 {
		t.Fatal("resync answer must be empty")
	}
	// The fallback full report re-establishes the session.
	r2 := s.SyncDelta("h1", 0, true, []data.UID{d.UID}, nil, false)
	if r2.Resync || len(r2.Keep) != 1 {
		t.Fatalf("fallback full report: %+v", r2)
	}
}

func TestSyncDeltaUnknownHostResyncs(t *testing.T) {
	s, _ := newTestService()
	r := s.SyncDelta("ghost", 3, false, nil, nil, false)
	if !r.Resync {
		t.Fatal("delta from unknown host must demand a resync")
	}
}

// TestSyncDeltaAfterFullSync: a plain full Sync invalidates the delta
// session, so the next delta is refused rather than applied to a stale
// mirror.
func TestSyncDeltaAfterFullSync(t *testing.T) {
	s, _ := newTestService()
	d := mkdata("x")
	s.Schedule(d, attr.Attribute{Name: "a", Replica: 1})

	r := s.SyncDelta("h1", 0, true, nil, nil, false)
	if r.Resync {
		t.Fatal("unexpected resync")
	}
	s.Sync("h1", []data.UID{d.UID})
	if r2 := s.SyncDelta("h1", r.Epoch+1, false, nil, nil, false); !r2.Resync {
		t.Fatal("delta after full Sync must resync")
	}
}

// TestSyncDeltaRemoves: removals shrink the mirrored cache and withdraw
// ownership exactly as a full report omitting the datum would.
func TestSyncDeltaRemoves(t *testing.T) {
	s, _ := newTestService()
	d := mkdata("x")
	s.Schedule(d, attr.Attribute{Name: "a", Replica: 1, FaultTolerant: true})

	r := s.SyncDelta("h1", 0, true, nil, nil, false)
	if len(r.Fetch) != 1 {
		t.Fatalf("fetch = %+v", r.Fetch)
	}
	r = s.SyncDelta("h1", r.Epoch, false, []data.UID{d.UID}, nil, false)
	if len(s.Owners(d.UID)) != 1 {
		t.Fatalf("owners = %v", s.Owners(d.UID))
	}
	// The host loses the copy (disk purge) and reports the removal. The
	// stale ownership is withdrawn, which makes the datum under-replicated
	// and immediately re-assigned — to this very host, proving the
	// withdrawal happened (a still-owned datum is never in Fetch).
	r = s.SyncDelta("h1", r.Epoch, false, nil, []data.UID{d.UID}, false)
	if len(r.Keep) != 0 {
		t.Errorf("removed datum still kept: %+v", r.Keep)
	}
	if len(r.Fetch) != 1 || r.Fetch[0].Data.UID != d.UID {
		t.Errorf("removed datum not re-assigned: %+v", r.Fetch)
	}
}

// TestSyncDeltaSessionPruning: cache mirrors of hosts gone quiet are
// dropped (bounding scheduler memory under churn); a pruned host's next
// delta is answered with Resync and a full report recovers.
func TestSyncDeltaSessionPruning(t *testing.T) {
	s, clk := newTestService()
	r := s.SyncDelta("h1", 0, true, nil, nil, false)
	if r.Resync {
		t.Fatal("unexpected resync")
	}
	// h1 goes silent well past the prune horizon; another host's sync
	// triggers the sweep.
	clk.advance(4 * s.Timeout)
	s.SyncDelta("h2", 0, true, nil, nil, false)
	stale := s.SyncDelta("h1", r.Epoch, false, nil, nil, false)
	if !stale.Resync {
		t.Fatal("pruned session not answered with Resync")
	}
	if r2 := s.SyncDelta("h1", 0, true, nil, nil, false); r2.Resync {
		t.Fatal("full report after pruning refused")
	}
}

func TestSyncDeltaOverRPC(t *testing.T) {
	s, _ := newTestService()
	d := mkdata("x")
	s.Schedule(d, attr.Attribute{Name: "a", Replica: 1})
	mux := rpc.NewMux()
	s.Mount(mux)
	c := NewClient(rpc.NewLocalClient(mux, 0))

	r, err := c.SyncDelta(SyncDeltaArgs{Host: "h1", Full: true})
	if err != nil || r.Resync {
		t.Fatalf("SyncDelta: %+v, %v", r, err)
	}
	if len(r.Fetch) != 1 || r.Fetch[0].Data.UID != d.UID {
		t.Fatalf("fetch = %+v", r.Fetch)
	}
	r2, err := c.SyncDelta(SyncDeltaArgs{Host: "h1", Epoch: r.Epoch, Added: []data.UID{d.UID}})
	// Over the wire the answer says what changes (Drop, Fetch), not what
	// stays: Keep would echo the host's whole cache on every heartbeat.
	if err != nil || r2.Resync || len(r2.Drop) != 0 || len(r2.Fetch) != 0 || len(r2.Keep) != 0 {
		t.Fatalf("delta heartbeat: %+v, %v", r2, err)
	}
}

// TestScheduleCallBatch submits N Schedule calls in one rpc frame.
func TestScheduleCallBatch(t *testing.T) {
	s, _ := newTestService()
	mux := rpc.NewMux()
	s.Mount(mux)
	lc := rpc.NewLocalClient(mux, 0)
	c := NewClient(lc)

	var calls []*rpc.Call
	for i := 0; i < 5; i++ {
		calls = append(calls, c.ScheduleCall(mkdata(fmt.Sprintf("d%d", i)), attr.Attribute{Name: "a", Replica: 1}))
	}
	if err := rpc.CallBatch(lc, calls); err != nil {
		t.Fatal(err)
	}
	if err := rpc.FirstError(calls); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Entries()); got != 5 {
		t.Errorf("entries = %d, want 5", got)
	}
	if n, _ := rpc.RoundTrips(lc); n != 1 {
		t.Errorf("round trips = %d, want 1", n)
	}
}

// TestSyncDeltaLocatesAssignments: the locate hook fills each assignment of
// a delta heartbeat with its candidate locators, over the assignment's
// protocol and outside the scheduler's lock; a refused read leaves that
// assignment bare, never fails the heartbeat, and an idle heartbeat reads
// nothing.
func TestSyncDeltaLocatesAssignments(t *testing.T) {
	s, _ := newTestService()
	located, refused := mkdata("located"), mkdata("refused")
	for _, d := range []data.Data{located, refused} {
		if err := s.Schedule(d, attr.Attribute{Name: "a", Replica: 1, Protocol: "http"}); err != nil {
			t.Fatal(err)
		}
	}
	reads := 0
	s.SetLocate(func(uid data.UID, protocol string) ([]data.Locator, error) {
		reads++
		s.Owners(uid) // takes s.mu: deadlocks if the hook ran under it
		if uid == refused.UID {
			return nil, fmt.Errorf("not the owner of %s", uid)
		}
		return []data.Locator{{DataUID: uid, Protocol: protocol, Host: "h:80", Ref: string(uid)}}, nil
	})

	r := s.SyncDelta("h1", 0, true, nil, nil, false)
	if r.Resync || len(r.Fetch) != 2 {
		t.Fatalf("heartbeat = %+v, want both data assigned", r)
	}
	for _, as := range r.Fetch {
		switch as.Data.UID {
		case located.UID:
			if len(as.Locators) != 1 || as.Locators[0].Protocol != "http" || as.Locators[0].DataUID != located.UID {
				t.Errorf("located assignment carries %v, want one http locator of its datum", as.Locators)
			}
		case refused.UID:
			if as.Locators != nil {
				t.Errorf("refused assignment carries %v, want no locators", as.Locators)
			}
		}
	}

	reads = 0
	r = s.SyncDelta("h1", r.Epoch, false, []data.UID{located.UID, refused.UID}, nil, false)
	if r.Resync || len(r.Fetch) != 0 || reads != 0 {
		t.Fatalf("idle heartbeat: %d assignments, %d locator reads; want none", len(r.Fetch), reads)
	}
}
