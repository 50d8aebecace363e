package testbed_test

import (
	"testing"

	"bitdew/internal/testbed"
)

// TestRunShardedBlast runs the plain scenario over 2 shards: the wave must
// distribute fully and spread across both shards.
func TestRunShardedBlast(t *testing.T) {
	report, err := testbed.RunShardedBlast(testbed.ShardedBlastConfig{
		Shards:  2,
		Workers: 3,
		Tasks:   16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.DistributionTime <= 0 || report.ThroughputPerSec <= 0 {
		t.Fatalf("no throughput measured: %+v", report)
	}
	total := 0
	for _, n := range report.PerShardData {
		total += n
	}
	if total != report.Tasks+1 {
		t.Fatalf("placement accounts for %d of %d data", total, report.Tasks+1)
	}
	if report.PerShardData[0] == 0 || report.PerShardData[1] == 0 {
		t.Fatalf("degenerate placement across shards: %v", report.PerShardData)
	}
}

// highestHome is the highest shard that homes any datum of perShard.
func highestHome(perShard []int) int {
	i := len(perShard) - 1
	for i > 0 && perShard[i] == 0 {
		i--
	}
	return i
}

// TestRunShardedBlastKillShard runs the fault variant: after distribution,
// the highest shard that homes data is killed and no datum, locator or
// placement may be lost on the surviving shards. RunShardedBlast itself
// errors on any loss; the assertions below additionally pin the audit's
// bookkeeping.
func TestRunShardedBlastKillShard(t *testing.T) {
	report, err := testbed.RunShardedBlast(testbed.ShardedBlastConfig{
		Shards:       2,
		Workers:      3,
		Tasks:        16,
		KillOneShard: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := highestHome(report.PerShardData); report.KilledShard != want {
		t.Fatalf("killed shard %d, want %d, the highest that homes data", report.KilledShard, want)
	}
	if report.SurvivorData == 0 {
		t.Fatal("no data homed on the surviving shard — audit proved nothing")
	}
	if report.SurvivedData != report.SurvivorData ||
		report.SurvivedLocators != report.SurvivorData ||
		report.SurvivedPlacements != report.SurvivorData {
		t.Fatalf("survivors lost state: %+v", report)
	}
}

// TestRunShardedBlastKillShardReplicated runs the fault variant over a
// replicated plane (3 shards, R=2): after distribution, the highest shard
// that homes data is killed and the audit upgrades to ZERO unavailability — every datum of
// the wave, including those homed on the killed shard, keeps its catalog
// entry, locators and placements and stays fetchable byte-for-byte through
// the same client, which reaches the dead shard's state via its promoted
// successor. RunShardedBlast itself errors on any loss; the assertions
// below pin the audit's bookkeeping so the check cannot silently weaken.
func TestRunShardedBlastKillShardReplicated(t *testing.T) {
	report, err := testbed.RunShardedBlast(testbed.ShardedBlastConfig{
		Shards:       3,
		Workers:      3,
		Tasks:        16,
		Replicas:     2,
		KillOneShard: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := highestHome(report.PerShardData); report.KilledShard != want {
		t.Fatalf("killed shard %d, want %d, the highest that homes data", report.KilledShard, want)
	}
	wave := report.Tasks + 1
	if report.SurvivorData != wave {
		t.Fatalf("audited %d of %d data — zero-unavailability audit must cover the whole wave", report.SurvivorData, wave)
	}
	if report.SurvivedData != wave || report.SurvivedLocators != wave || report.SurvivedPlacements != wave {
		t.Fatalf("data became unavailable after the kill: %+v", report)
	}
	if report.PerShardData[report.KilledShard] == 0 {
		t.Fatal("no data homed on the killed shard — audit proved nothing about failover")
	}
	if report.FailedOverData != report.PerShardData[report.KilledShard] {
		t.Fatalf("%d of the killed shard's %d data failed over", report.FailedOverData, report.PerShardData[report.KilledShard])
	}
}

// TestRunShardedBlastDurable re-runs the scenario over durable shards to
// make sure per-shard StateDirs compose with sharding.
func TestRunShardedBlastDurable(t *testing.T) {
	report, err := testbed.RunShardedBlast(testbed.ShardedBlastConfig{
		Shards:   2,
		Workers:  2,
		Tasks:    8,
		StateDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.ThroughputPerSec <= 0 {
		t.Fatalf("no throughput measured: %+v", report)
	}
}
