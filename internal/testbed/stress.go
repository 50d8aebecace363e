package testbed

import (
	"cmp"
	"fmt"

	"bitdew/internal/loadgen"
)

// This file adds the sustained-load scenario to the testbed: where the
// BLAST runs (sharded.go, churn.go) distribute ONE wave and exit, the
// stress scenario models the paper's evaluation conditions as steady-state
// traffic — thousands of simulated clients issuing a configurable mix of
// put/fetch/schedule/search ops against a real sharded plane for a fixed
// window, with per-op latency histograms. cmd/bitdew-stress is the CLI over
// this; BenchmarkSustainedStress and the CI smoke drive it in-process.

// StressConfig parameterises a sustained-load run against an in-process
// sharded service plane.
type StressConfig struct {
	// Shards is the number of service containers (default 2).
	Shards int
	// Load configures the generator (clients, duration, warmup, mix,
	// arrival); see loadgen.Config for the defaults.
	Load loadgen.Config
	// Plane configures the client side (connection pool size, payload,
	// preload, put-slot rings); Addrs is filled in from the booted plane.
	Plane loadgen.PlaneConfig
}

// RunStress boots a sharded plane, drives the mixed workload against it,
// and folds the outcome into the BENCH_*.json report schema. Operation
// errors do not fail the run — they are counted in the report for the
// caller to judge (the CI smoke and the acceptance test demand zero). A
// small wave the load never touches is put first and audited after the
// window: traffic beside it must not have disturbed it.
func RunStress(cfg StressConfig) (*loadgen.Report, error) {
	cfg.Shards = cmp.Or(cfg.Shards, 2)
	f, err := boot(fixtureConfig{name: "witness", shards: cfg.Shards, shared: true})
	if err != nil {
		return nil, err
	}
	defer f.close()
	if _, err := f.putWave(8); err != nil {
		return nil, fmt.Errorf("testbed: stress: %w", err)
	}

	cfg.Plane.Addrs = f.plane.Addrs()
	clients, err := loadgen.ConnectPlane(cfg.Plane)
	if err != nil {
		return nil, fmt.Errorf("testbed: stress: %w", err)
	}
	defer clients.Close()

	res, err := loadgen.Run(cfg.Load, clients.Factory())
	if err != nil {
		return nil, fmt.Errorf("testbed: stress: %w", err)
	}
	if err := f.settle(); err != nil {
		return nil, err
	}
	return loadgen.BuildReport("stress", res, cfg.Shards, clients.Conns(), clients.PayloadBytes()), nil
}
