package bitdew_test

import (
	"testing"
	"time"

	"bitdew/internal/testbed"
)

// ---- Elastic scale-out (grow the plane under live traffic) ----
//
// Where BenchmarkShardScaling boots separate planes at each size, this run
// measures the ELASTIC path: one plane, grown 2->4 by live AddShard while a
// BLAST wave distributes across the stage/cutover/commit windows. The same
// capacity model (rpc serve limit 1, fixed per-frame service time) makes
// each shard's capacity real, so baseline->scaled is a genuine capacity
// gain delivered without stopping the plane.

// scaleOutConfig is the shared scenario: grow 2 -> 4 under a 4-worker
// BLAST workload with a 6ms per-frame service time; the measured windows
// are closed-loop home-routed catalog reads (one rpc frame per op).
func scaleOutConfig() testbed.ScaleOutConfig {
	return testbed.ScaleOutConfig{
		StartShards:  2,
		EndShards:    4,
		Workers:      4,
		Tasks:        96,
		PayloadBytes: 256,
		ServiceTime:  6 * time.Millisecond,
	}
}

func BenchmarkScaleOut(b *testing.B) {
	var speedup float64
	var growMS float64
	var steps int
	for i := 0; i < b.N; i++ {
		report, err := testbed.RunScaleOut(scaleOutConfig())
		if err != nil {
			b.Fatal(err)
		}
		speedup += report.Speedup
		for _, d := range report.GrowSteps {
			growMS += float64(d.Milliseconds())
			steps++
		}
	}
	b.ReportMetric(speedup/float64(b.N), "speedup-x")
	b.ReportMetric(growMS/float64(steps), "grow-ms")
}

// TestBenchScaleOutAcceptance pins the claim the benchmark demonstrates:
// growing the plane 2->4 under live traffic loses nothing (RunScaleOut
// itself errors on any unavailability, lost datum or stuck epoch) and the
// grown plane moves the same wave at >= 1.5x the 2-shard baseline.
// (Typical runs land near 1.9x — the gap to 2x is the workload's constant
// client-side cost plus placement skew — and 1.5x leaves headroom for
// noisy CI machines and the race detector's overhead.)
func TestBenchScaleOutAcceptance(t *testing.T) {
	// Measured twice before failing: the capacity model's injected 6ms
	// service time only dominates while the machine has CPU to spare, and
	// `go test ./...` runs heavy packages in parallel — a transient
	// starvation window compresses the ratio without any real scaling
	// regression. A genuine regression fails both rounds.
	var report testbed.ScaleOutReport
	for round := 0; round < 2; round++ {
		var err error
		report, err = testbed.RunScaleOut(scaleOutConfig())
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("baseline %.0f reads/sec -> scaled %.0f reads/sec (%.2fx), grow steps %v, spread %v",
			report.BaselineThroughput, report.ScaledThroughput, report.Speedup,
			report.GrowSteps, report.PerShardData)
		if report.Speedup >= 1.5 {
			return
		}
	}
	t.Fatalf("scaled plane reached %.0f reads/sec vs %.0f baseline (%.2fx, want >= 1.5x)",
		report.ScaledThroughput, report.BaselineThroughput, report.Speedup)
}
