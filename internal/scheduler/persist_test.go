package scheduler

import (
	"bytes"
	"encoding/hex"
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

// TestPersistedEntryFormatPinned: a write-through row is these bytes — maps
// in key order and time.Time in its binary form included — so a silent
// change of format trips here; the row the service writes for the same state
// is the same blob, and a store holding it recovers owners and pins.
func TestPersistedEntryFormatPinned(t *testing.T) {
	at := time.Date(2008, 11, 15, 12, 0, 0, 0, time.UTC)
	d := data.Data{UID: "00000001-00000002-00000003-00000004", Name: "pinned", Size: 3, Created: at}
	a := attr.Attribute{Name: "coll", Replica: 2, FaultTolerant: true, LifetimeAbs: time.Hour, Affinity: "other", Protocol: "http", Pinned: true}
	row, err := codec.Marshal(persistedEntry{
		Data: d, Attr: a, ScheduledAt: at.Add(time.Second), Order: 7,
		Owners: map[string]time.Time{"w2": at.Add(2 * time.Second), "master": at, "w1": at.Add(time.Minute)},
		Pinned: map[string]bool{"master": true},
	})
	if err != nil {
		t.Fatal(err)
	}
	const want = "cd1d21452330303030303030312d30303030303030322d30303030303030332d30303030303030340670696e6e65640006000f010000000ec0b0b0c000000000ffff04636f6c6c04018080c58bc6d10100056f746865720468747470010f010000000ec0b0b0c100000000ffff0e03066d61737465720f010000000ec0b0b0c000000000ffff0277310f010000000ec0b0b0fc00000000ffff0277320f010000000ec0b0b0c200000000ffff01066d617374657201"
	if hex.EncodeToString(row) != want {
		t.Fatalf("persisted entry is\n%x, want\n%s", row, want)
	}

	store := db.NewRowStore()
	if err := store.Put(tableEntries, string(d.UID), row); err != nil {
		t.Fatal(err)
	}
	re := restartDurable(t, store)
	if owners := re.Owners(d.UID); len(owners) != 3 || !re.pinned[d.UID]["master"] {
		t.Fatalf("recovered owners %v, pinned %v", owners, re.pinned[d.UID])
	}
	re.mu.Lock()
	re.theta[d.UID].scheduledAt = at.Add(time.Second) // recovery restamps nothing else
	re.owners[d.UID] = map[string]time.Time{"w2": at.Add(2 * time.Second), "master": at, "w1": at.Add(time.Minute)}
	re.persistLocked(d.UID)
	re.mu.Unlock()
	if got, _, _ := store.Get(tableEntries, string(d.UID)); !bytes.Equal(got, row) {
		t.Fatalf("the row the service writes is\n%x, want\n%x", got, row)
	}
}
