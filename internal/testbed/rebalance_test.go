package testbed_test

import (
	"testing"

	"bitdew/internal/testbed"
)

// TestRunScaleOut runs the live scale-out scenario functionally (no
// capacity model): a 2-shard plane grows to 3 while a wave distributes,
// and RunScaleOut itself errors on any unavailability, lost datum, stuck
// epoch, or empty new shard. The assertions below pin the report's
// bookkeeping so the audit cannot silently weaken.
func TestRunScaleOut(t *testing.T) {
	report, err := testbed.RunScaleOut(testbed.ScaleOutConfig{
		StartShards: 2,
		EndShards:   3,
		Workers:     3,
		Tasks:       16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.GrowSteps) != 1 {
		t.Fatalf("grew in %d steps, want 1", len(report.GrowSteps))
	}
	if report.EpochAfter != report.EpochBefore+1 {
		t.Fatalf("epoch %d -> %d across one AddShard", report.EpochBefore, report.EpochAfter)
	}
	if report.BaselineThroughput <= 0 || report.ScaledThroughput <= 0 {
		t.Fatalf("no throughput measured: %+v", report)
	}
	total := 0
	for _, n := range report.PerShardData {
		total += n
	}
	if total != 3*(report.Tasks+1) {
		t.Fatalf("placement accounts for %d of %d data", total, 3*(report.Tasks+1))
	}
}

// TestRunDrain runs the scale-in scenario: a 3-shard plane drains to 2,
// the retired container is released, and every datum must survive on the
// survivors. RunDrain itself errors on any loss.
func TestRunDrain(t *testing.T) {
	report, err := testbed.RunDrain(testbed.DrainConfig{
		Shards: 3,
		Tasks:  16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Drained != 2 {
		t.Fatalf("drained shard %d, want 2", report.Drained)
	}
	if report.DrainTime <= 0 {
		t.Fatalf("no drain time measured: %+v", report)
	}
}
