package testbed

import (
	"cmp"
	"fmt"
	"time"
)

// This file adds the shard-scaling scenario to the testbed: where churn.go
// exercises one durable service host being bounced, the sharded BLAST run
// exercises the service plane scaled OUT — N independent containers, data
// consistent-hashed onto home shards, clients fanning batched calls out
// per shard. The scenario emulates each service host's finite capacity
// with the rpc server's serve limit + injected service time, so the
// single-host bottleneck is real and adding shards measurably relieves it
// (BenchmarkShardScaling's near-linear curve), and a kill-one-shard
// variant checks the blast radius of losing a shard is exactly that
// shard's data.

// ShardedBlastConfig parameterises a sharded BLAST-like run.
type ShardedBlastConfig struct {
	// Shards is the number of service containers (default 2).
	Shards int
	// Workers is the number of reservoir hosts pulling the schedulers
	// (default 4).
	Workers int
	// Tasks is the number of replica-1 task data in the wave (default 32);
	// one broadcast "genebase" datum rides along, as in the paper's BLAST
	// deployment.
	Tasks int
	// PayloadBytes sizes each payload (default 256).
	PayloadBytes int
	// ServiceTime, when set, models each service host's per-frame
	// processing cost: every shard's rpc server handles one frame at a
	// time (serve limit 1), holding it for ServiceTime. Zero runs the
	// plane unthrottled (functional tests).
	ServiceTime time.Duration
	// KillOneShard, after the wave converges, kills the highest-index
	// shard and audits the plane's loss. Unreplicated, the blast radius
	// must be exactly the dead shard's data; with Replicas > 1 it must be
	// nothing — the failover router promotes the dead shard's successor
	// on first contact (see the harness's audit).
	KillOneShard bool
	// Replicas is the plane's replication factor (0/1: unreplicated).
	Replicas int
	// StateDir optionally makes every shard durable (per-shard subdirs).
	StateDir string
}

// ShardedBlastReport is the outcome of a sharded BLAST run.
type ShardedBlastReport struct {
	Tasks int
	// DistributionTime is the wall time from the first Put to every datum
	// placed and downloaded (genebase on every worker, every task owned).
	DistributionTime time.Duration
	// ThroughputPerSec is data distributed per second over that window.
	ThroughputPerSec float64
	// PerShardData counts the wave's data by home shard (placement spread).
	PerShardData []int
	// KilledShard is the shard killed by the fault variant (-1 when none).
	KilledShard int
	// SurvivorData counts the wave's data the kill must NOT lose: those
	// homed on surviving shards, or — with Replicas > 1 — the WHOLE wave.
	// SurvivedData/SurvivedLocators/SurvivedPlacements count how many of
	// those kept each kind of state after the kill (all equal to
	// SurvivorData when nothing was lost).
	SurvivorData       int
	SurvivedData       int
	SurvivedLocators   int
	SurvivedPlacements int
	// FailedOverData counts the killed shard's own data that stayed fully
	// available through failover (0 on an unreplicated plane, where they
	// are expected lost; equal to the killed shard's PerShardData count on
	// a replicated one).
	FailedOverData int
}

// RunShardedBlast runs the scenario: boot an N-shard service plane,
// distribute a BLAST-like wave (one broadcast genebase + Tasks replica-1
// task data) through sharded clients, measure the distribution throughput,
// and optionally kill one shard. The plane is audited after the kill and at
// the end of the run; it returns an error if distribution misses the
// deadline or any audited datum lost state, so tests and benchmarks can use
// it as an acceptance check.
func RunShardedBlast(cfg ShardedBlastConfig) (ShardedBlastReport, error) {
	cfg.Shards, cfg.Workers, cfg.Tasks = cmp.Or(cfg.Shards, 2), cmp.Or(cfg.Workers, 4), cmp.Or(cfg.Tasks, 32)
	report := ShardedBlastReport{Tasks: cfg.Tasks, KilledShard: -1}
	f, err := boot(fixtureConfig{
		name: "blast", shards: cfg.Shards, replicas: cfg.Replicas, stateDir: cfg.StateDir,
		serviceTime: cfg.ServiceTime, workers: cfg.Workers, payload: cfg.PayloadBytes,
	})
	if err != nil {
		return report, err
	}
	defer f.close()

	w, err := f.putWave(cfg.Tasks + 1)
	if err != nil {
		return report, err
	}
	f.pump()
	at, err := f.distributed(w)
	if err != nil {
		return report, err
	}
	report.DistributionTime = at.Sub(w.start)
	report.ThroughputPerSec = float64(len(w.data)) / report.DistributionTime.Seconds()
	report.PerShardData = make([]int, cfg.Shards)
	for _, d := range w.data {
		report.PerShardData[f.set.ShardOf(d.UID)]++
	}
	// Settling before the kill matters too: at R > 1 the audit's convergence
	// barrier keeps the kill from racing the replication stream, so what the
	// next audit measures is failover, not shipping lag.
	if err := f.settle(); err != nil || !cfg.KillOneShard {
		return report, err
	}

	// The audit after the kill ends the run. It reads through the same
	// client: over a replicated plane its first call to the dead shard's
	// range IS the detection + promotion path.
	killed := cfg.Shards - 1
	if _, err := f.step(fmt.Sprintf("killing shard %d", killed), func() error {
		return f.plane.KillShard(killed)
	}); err != nil {
		return report, err
	}
	report.KilledShard = killed
	report.SurvivorData = len(w.data)
	if f.plane.Replicas() > 1 {
		report.FailedOverData = report.PerShardData[killed]
	} else {
		report.SurvivorData -= report.PerShardData[killed]
	}
	report.SurvivedData, report.SurvivedLocators, report.SurvivedPlacements =
		report.SurvivorData, report.SurvivorData, report.SurvivorData
	return report, nil
}
