package scheduler

import (
	"bytes"
	"encoding/gob"
	"testing"
	"time"

	"bitdew/internal/attr"
	"bitdew/internal/codec"
	"bitdew/internal/data"
	"bitdew/internal/db"
)

// restartDurable closes nothing (the store is in-memory) but simulates a
// service crash/restart: a fresh scheduler recovered from the same store.
func restartDurable(t *testing.T, store db.Store) *Service {
	t.Helper()
	s, err := NewDurable(store)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDurableSchedulerRecoversEntries(t *testing.T) {
	store := db.NewRowStore()
	s := restartDurable(t, store)

	d1 := data.New("a")
	d2 := data.New("b")
	if err := s.Schedule(*d1, attr.Attribute{Name: "one", Replica: 2, FaultTolerant: true}); err != nil {
		t.Fatal(err)
	}
	if err := s.Pin(*d2, attr.Attribute{Name: "coll", Pinned: true}, "master"); err != nil {
		t.Fatal(err)
	}
	s.Sync("w1", nil) // w1 gets assigned d1

	re := restartDurable(t, store)
	entries := re.Entries()
	if len(entries) != 2 {
		t.Fatalf("recovered %d entries, want 2", len(entries))
	}
	// Insertion order survives the restart.
	if entries[0].Data.UID != d1.UID || entries[1].Data.UID != d2.UID {
		t.Fatalf("recovered order = %s, %s", entries[0].Data.Name, entries[1].Data.Name)
	}
	if entries[0].Attr.Replica != 2 || !entries[0].Attr.FaultTolerant {
		t.Fatalf("recovered attr = %+v", entries[0].Attr)
	}
	// Placements survive: w1 still owns d1, the pin still holds.
	if owners := re.Owners(d1.UID); len(owners) != 1 || owners[0] != "w1" {
		t.Fatalf("recovered owners of d1 = %v", owners)
	}
	if owners := re.Owners(d2.UID); len(owners) != 1 || owners[0] != "master" {
		t.Fatalf("recovered owners of pinned d2 = %v", owners)
	}
	// The pin itself survives: a sync from master with an empty cache must
	// not withdraw pinned ownership.
	re.Sync("master", nil)
	if owners := re.Owners(d2.UID); len(owners) != 1 {
		t.Fatalf("pin lost after restart: owners = %v", owners)
	}
	if err := re.StoreErr(); err != nil {
		t.Fatal(err)
	}
}

func TestDurableSchedulerUnscheduleAndGCDeleteRows(t *testing.T) {
	store := db.NewRowStore()
	s := restartDurable(t, store)

	d := data.New("doomed")
	if err := s.Schedule(*d, attr.Default()); err != nil {
		t.Fatal(err)
	}
	if store.Len(tableEntries) != 1 {
		t.Fatalf("rows = %d, want 1", store.Len(tableEntries))
	}
	if err := s.Unschedule(d.UID); err != nil {
		t.Fatal(err)
	}
	if store.Len(tableEntries) != 0 {
		t.Fatalf("rows after Unschedule = %d, want 0", store.Len(tableEntries))
	}

	// GC also deletes the durable rows of expired entries.
	now := time.Now()
	s.SetClock(func() time.Time { return now })
	exp := data.New("expiring")
	s.Schedule(*exp, attr.Attribute{Name: "short", LifetimeAbs: time.Second})
	now = now.Add(2 * time.Second)
	if n := s.GC(); n != 1 {
		t.Fatalf("GC removed %d, want 1", n)
	}
	if store.Len(tableEntries) != 0 {
		t.Fatalf("rows after GC = %d, want 0", store.Len(tableEntries))
	}
}

func TestDurableSchedulerNewOrderContinues(t *testing.T) {
	store := db.NewRowStore()
	s := restartDurable(t, store)
	d1 := data.New("first")
	s.Schedule(*d1, attr.Default())

	re := restartDurable(t, store)
	d2 := data.New("second")
	re.Schedule(*d2, attr.Default())
	entries := re.Entries()
	if len(entries) != 2 || entries[0].Data.UID != d1.UID || entries[1].Data.UID != d2.UID {
		t.Fatalf("post-restart scheduling broke insertion order: %+v", entries)
	}
}

func TestDurableSchedulerRestartForcesResync(t *testing.T) {
	store := db.NewRowStore()
	s := restartDurable(t, store)
	d := data.New("x")
	s.Schedule(*d, attr.Default())

	// Establish a delta session.
	res := s.SyncDelta("w1", 0, true, nil, nil, false)
	if res.Resync {
		t.Fatal("full report refused")
	}

	// Sessions are not persisted: after a restart the host's next delta is
	// told to resync, and its full report reconverges.
	re := restartDurable(t, store)
	res2 := re.SyncDelta("w1", res.Epoch, false, nil, nil, false)
	if !res2.Resync {
		t.Fatal("restarted scheduler accepted a stale delta session")
	}
	res3 := re.SyncDelta("w1", 0, true, []data.UID{d.UID}, nil, false)
	if res3.Resync {
		t.Fatal("full resync refused after restart")
	}
	if len(res3.Keep) != 1 || res3.Keep[0] != d.UID {
		t.Fatalf("reconverged keep = %v", res3.Keep)
	}
}

// TestRecoveredOwnersAreNotPresumedDead pins what a recovery may conclude
// from a persisted owner timestamp: nothing. The timestamp dates from the
// placement (refreshes are not persisted), so on a scheduler that restarts
// — or adopts the rows at a failover or a reshape — more than one Timeout
// after the placement, the first sync of ANOTHER host used to expire the
// holder and be handed its replica-1 datum. A holder that stays silent for
// a Timeout after the recovery still expires.
func TestRecoveredOwnersAreNotPresumedDead(t *testing.T) {
	for _, how := range []string{"restart", "adopt"} {
		t.Run(how, func(t *testing.T) {
			clock := time.Unix(1_000_000, 0)
			now := func() time.Time { return clock }
			store := db.NewRowStore()
			s := New()
			s.SetClock(now)
			if err := s.AttachStore(store); err != nil {
				t.Fatal(err)
			}
			d := data.New("task")
			if err := s.Schedule(*d, attr.Attribute{Name: "task", Replica: 1, FaultTolerant: true}); err != nil {
				t.Fatal(err)
			}
			if got := s.Sync("holder", nil); len(got.Fetch) != 1 {
				t.Fatalf("holder was assigned %d data, want 1", len(got.Fetch))
			}
			// The holder keeps heartbeating (refreshes are in memory only)
			// until the service goes away, long after the placement.
			for i := 0; i < 4; i++ {
				clock = clock.Add(DefaultTimeout / 2)
				s.Sync("holder", []data.UID{d.UID})
			}

			re := New()
			re.SetClock(now)
			switch how {
			case "restart":
				if err := re.AttachStore(store); err != nil {
					t.Fatal(err)
				}
			case "adopt":
				raw, ok, err := store.Get(TableEntries, string(d.UID))
				if err != nil || !ok {
					t.Fatalf("persisted row: %v %v", ok, err)
				}
				if err := re.AdoptRows(map[string][]byte{string(d.UID): raw}); err != nil {
					t.Fatal(err)
				}
			}
			if got := re.Sync("bystander", nil); len(got.Fetch) != 0 {
				t.Fatalf("a bystander's first sync after the %s was handed the holder's datum", how)
			}
			if owners := re.Owners(d.UID); len(owners) != 1 || owners[0] != "holder" {
				t.Fatalf("owners after the %s = %v, want the holder", how, owners)
			}
			// Silence AFTER the recovery is evidence: one Timeout later the
			// holder expires and the datum is placed again.
			clock = clock.Add(DefaultTimeout + time.Second)
			if got := re.Sync("bystander", nil); len(got.Fetch) != 1 {
				t.Fatalf("a holder silent for a Timeout after the %s was never expired", how)
			}
		})
	}
}

func TestDurableSchedulerOverDurableStore(t *testing.T) {
	dir := t.TempDir()
	ds, err := db.OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewDurable(ds)
	if err != nil {
		t.Fatal(err)
	}
	d := data.New("persisted")
	s.Schedule(*d, attr.Attribute{Name: "bcast", Replica: attr.ReplicaAll, Protocol: "http"})
	s.Sync("w1", nil)
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	ds2, err := db.OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	re, err := NewDurable(ds2)
	if err != nil {
		t.Fatal(err)
	}
	entries := re.Entries()
	if len(entries) != 1 || entries[0].Data.UID != d.UID {
		t.Fatalf("entries after disk restart = %+v", entries)
	}
	if entries[0].Attr.Protocol != "http" || !entries[0].Attr.WantsBroadcast() {
		t.Fatalf("attr after disk restart = %+v", entries[0].Attr)
	}
	if owners := re.Owners(d.UID); len(owners) != 1 || owners[0] != "w1" {
		t.Fatalf("owners after disk restart = %v", owners)
	}
}

// freshGob is what persistLocked wrote before internal/codec: one fresh
// encoder per row. Every existing state dir holds rows of this shape.
func freshGob(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPersistedEntryFormatUnchanged: the rows the write-through stores are a
// fresh encoder's output byte for byte (maps and time.Time included; one
// entry per map, gob writes maps in iteration order), and rows written by a
// fresh encoder are recovered through the warm decoders as native blobs.
func TestPersistedEntryFormatUnchanged(t *testing.T) {
	store := db.NewRowStore()
	s := restartDurable(t, store)
	d1, d2 := data.New("scheduled"), data.New("pinned")
	if err := s.Schedule(*d1, attr.Attribute{Name: "one", Replica: 1, FaultTolerant: true, LifetimeAbs: time.Hour}); err != nil {
		t.Fatal(err)
	}
	if err := s.Pin(*d2, attr.Attribute{Name: "coll", Pinned: true}, "master"); err != nil {
		t.Fatal(err)
	}
	s.Sync("w1", nil) // w1 becomes d1's one owner

	old := db.NewRowStore()
	for i := 0; i < 3; i++ { // past the codec's warm-up
		for _, d := range []*data.Data{d1, d2} {
			s.mu.Lock()
			s.persistLocked(d.UID)
			e := s.theta[d.UID]
			want := freshGob(t, persistedEntry{
				Data: e.Data, Attr: e.Attr, ScheduledAt: e.scheduledAt, Order: e.order,
				Owners: s.owners[d.UID], Pinned: s.pinned[d.UID],
			})
			s.mu.Unlock()
			got, ok, err := store.Get(tableEntries, string(d.UID))
			if err != nil || !ok {
				t.Fatalf("row of %s: %v, %v", d.Name, ok, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("row of %s differs from a fresh encoder's", d.Name)
			}
			if err := old.Put(tableEntries, string(d.UID), want); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(s.Owners(d1.UID)) != 1 || len(s.Owners(d2.UID)) != 1 {
		t.Fatalf("owners %v and %v: the byte comparison needs one entry per map", s.Owners(d1.UID), s.Owners(d2.UID))
	}

	before := codec.ForeignDecodes()
	re := restartDurable(t, old)
	if n := codec.ForeignDecodes() - before; n != 0 {
		t.Fatalf("%d fresh-encoder rows decoded as foreign", n)
	}
	if owners := re.Owners(d1.UID); len(owners) != 1 || owners[0] != "w1" {
		t.Fatalf("recovered owners of %s = %v", d1.Name, owners)
	}
	if !re.pinned[d2.UID]["master"] {
		t.Fatalf("recovered %s is not pinned on master", d2.Name)
	}
}
