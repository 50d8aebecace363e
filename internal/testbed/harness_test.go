package testbed

import (
	"strings"
	"testing"

	"bitdew/internal/data"
)

// distributedFixture boots cfg's plane, puts one wave of n data, lets the
// workers (if any) distribute it, and checks the audit passes on the
// undisturbed plane — the state every row below starts from.
func distributedFixture(t *testing.T, cfg fixtureConfig, n int) (*fixture, *wave) {
	t.Helper()
	f, err := boot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.close)
	w, err := f.putWave(n)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.workers > 0 {
		f.pump()
		if _, err := f.distributed(w); err != nil {
			t.Fatal(err)
		}
		if err := f.stopPump(); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.audit(); err != nil {
		t.Fatalf("audit of an undisturbed plane: %v", err)
	}
	return f, w
}

// TestAuditCatchesEachInvariant proves the auditor can fail: each row
// breaks one invariant behind the plane's back — through a shard's own
// services, never through the client — and the audit must name the datum
// and the invariant.
func TestAuditCatchesEachInvariant(t *testing.T) {
	stray := data.New("nobody-put-me")
	for _, tc := range []struct {
		name string
		// sabotage breaks the invariant for victim and returns the name the
		// audit must report.
		sabotage  func(f *fixture, victim *data.Data) (string, error)
		invariant string
	}{
		{"content deleted from the home repository", func(f *fixture, victim *data.Data) (string, error) {
			home := f.plane.Shard(f.set.ShardOf(victim.UID))
			return victim.Name, home.DR.Backend().Delete(string(victim.UID))
		}, "byte-exact read"},
		{"locators removed", func(f *fixture, victim *data.Data) (string, error) {
			// The catalog drops a datum's locators with the datum; putting
			// the bare row back leaves an entry nobody can locate.
			home := f.plane.Shard(f.set.ShardOf(victim.UID))
			if err := home.DC.Delete(victim.UID); err != nil {
				return "", err
			}
			return victim.Name, home.DC.Register(*victim)
		}, "no locator"},
		{"catalog entry removed", func(f *fixture, victim *data.Data) (string, error) {
			return victim.Name, f.plane.Shard(f.set.ShardOf(victim.UID)).DC.Delete(victim.UID)
		}, "no catalog entry"},
		{"scheduled datum unscheduled", func(f *fixture, victim *data.Data) (string, error) {
			return victim.Name, f.plane.Shard(f.set.ShardOf(victim.UID)).DS.Unschedule(victim.UID)
		}, "no owner"},
		{"stray catalog row", func(f *fixture, _ *data.Data) (string, error) {
			return stray.Name, f.plane.Shard(f.set.ShardOf(stray.UID)).DC.Register(*stray)
		}, "stray catalog row"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, w := distributedFixture(t, fixtureConfig{name: "audit", shards: 2, workers: 2}, 9)
			name, err := tc.sabotage(f, w.data[3])
			if err != nil {
				t.Fatal(err)
			}
			err = f.audit()
			if err == nil {
				t.Fatal("audit passed on a sabotaged plane")
			}
			if !strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), tc.invariant) {
				t.Fatalf("audit error %q names neither %q nor %q", err, name, tc.invariant)
			}
		})
	}
}

// TestAuditPassesAcrossFaults is the other half: faults the plane is built
// to absorb leave every invariant standing.
func TestAuditPassesAcrossFaults(t *testing.T) {
	t.Run("kill and restart of a durable one-shard plane", func(t *testing.T) {
		f, _ := distributedFixture(t, fixtureConfig{name: "audit", shards: 1, workers: 2, stateDir: t.TempDir()}, 9)
		if err := f.plane.KillShard(0); err != nil {
			t.Fatal(err)
		}
		if err := f.plane.RestartShard(0); err != nil {
			t.Fatal(err)
		}
		if err := f.audit(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("kill at R=2", func(t *testing.T) {
		f, w := distributedFixture(t, fixtureConfig{name: "audit", shards: 3, replicas: 2, workers: 2}, 17)
		victim := f.set.ShardOf(w.data[0].UID)
		if err := f.plane.KillShard(victim); err != nil {
			t.Fatal(err)
		}
		if err := f.audit(); err != nil {
			t.Fatal(err)
		}
		if f.set.OwnerOf(victim) == victim {
			t.Fatalf("range %d still routed to the killed shard", victim)
		}
	})
	t.Run("the blast radius of a kill at R=1 is not audited", func(t *testing.T) {
		f, w := distributedFixture(t, fixtureConfig{name: "audit", shards: 2, workers: 2}, 17)
		victim := f.set.ShardOf(w.data[0].UID)
		if err := f.plane.KillShard(victim); err != nil {
			t.Fatal(err)
		}
		if err := f.audit(); err != nil {
			t.Fatal(err)
		}
	})
}
