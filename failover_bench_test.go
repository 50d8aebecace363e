package bitdew_test

import (
	"testing"
	"time"

	"bitdew/internal/testbed"
)

// ---- Failover latency (replicated plane, kill-the-owner) ----
//
// The replicated service plane's headline number: how long a key range is
// unreachable when its owning shard dies. Each measurement kills the
// current owner of a range and times the window from the kill to the first
// successful read of a datum homed there through a failover-aware client —
// detection (transport error), ownership probes, the successor's promotion
// (adopting the replicated rows into its live store) and the re-routed
// read.

// failoverConfig is the shared scenario: a 3-shard R=2 plane, two rounds so
// both a first failover and a promote-back after rejoin are measured.
func failoverConfig() testbed.FailoverConfig {
	return testbed.FailoverConfig{
		Shards:   3,
		Replicas: 2,
		Data:     16,
		Rounds:   2,
	}
}

func BenchmarkFailover(b *testing.B) {
	var sum time.Duration
	var n int
	for i := 0; i < b.N; i++ {
		report, err := testbed.RunFailover(failoverConfig())
		if err != nil {
			b.Fatal(err)
		}
		for _, d := range report.Detections {
			sum += d
			n++
		}
	}
	b.ReportMetric(float64(sum.Milliseconds())/float64(n), "failover-ms")
}

// TestBenchFailoverAcceptance pins the claim the benchmark demonstrates:
// killing a range's owner costs bounded unavailability — every round's
// detection-to-promoted window stays under 10s (typical runs land well
// under 2s; 10s leaves headroom for loaded CI machines and the race
// detector), and the killed shard rejoins so the NEXT kill fails over too.
func TestBenchFailoverAcceptance(t *testing.T) {
	report, err := testbed.RunFailover(failoverConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Detections) != report.Rounds {
		t.Fatalf("measured %d rounds, want %d", len(report.Detections), report.Rounds)
	}
	for round, d := range report.Detections {
		t.Logf("round %d: detection-to-promoted %v", round, d)
		if d > 10*time.Second {
			t.Fatalf("round %d: failover took %v, want < 10s", round, d)
		}
	}
}
