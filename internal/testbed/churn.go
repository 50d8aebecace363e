package testbed

import (
	"cmp"
	"fmt"
	"time"
)

// This file adds the service-churn scenario to the testbed: where the
// platforms above model worker-side volatility (the paper's reservoir
// hosts), the churn scenario exercises the OTHER side of the fault model —
// the stable service host itself being killed and restarted mid-workload
// (§3.4–3.5: all D* meta-data lives in a database back-end precisely so a
// service restart loses nothing). It drives the real components end to
// end: a durable one-shard plane over TCP, reconnecting client nodes, and a
// BLAST-like wave (one broadcast base + a batch of fault-tolerant tasks).

// ChurnConfig parameterises a service-churn run.
type ChurnConfig struct {
	// Workers is the number of reservoir hosts pulling the scheduler
	// (default 3).
	Workers int
	// Tasks is the number of task data in the wave (default 8).
	Tasks int
	// Restarts is how many kill/restart cycles to inflict mid-wave
	// (default 1). Every cycle bounces catalog, scheduler, repository and
	// transfer together — they share the container, as in the paper.
	Restarts int
	// StateDir is the service plane's durable state directory (required).
	StateDir string
}

// ChurnReport is the outcome of a churn run.
type ChurnReport struct {
	Workers, Tasks int
	Restarts       int
	// RecoveryTime is the wall time from the last restart's completion to
	// full reconvergence (every worker heard by the restarted scheduler,
	// every task owned, the broadcast base on every worker) — the
	// restart-to-reconverged metric of BenchmarkServiceRecovery.
	RecoveryTime time.Duration
	// DataSurvived / LocatorsSurvived count catalog rows intact after the
	// final restart (wave size + 1 broadcast base when nothing was lost).
	DataSurvived     int
	LocatorsSurvived int
}

// RunServiceChurn runs the scenario: start a durable service plane,
// distribute a BLAST-like wave, then kill and restart the whole plane under
// its workers (Restarts times) and measure how long the system takes to
// reconverge. Every restart is audited straight off the recovered state,
// before any worker has re-reported anything, and the run again at the end;
// it returns an error if any datum, locator, byte or placement is lost, so
// tests and benchmarks can use it as an acceptance check.
func RunServiceChurn(cfg ChurnConfig) (ChurnReport, error) {
	cfg.Workers, cfg.Tasks, cfg.Restarts = cmp.Or(cfg.Workers, 3), cmp.Or(cfg.Tasks, 8), cmp.Or(cfg.Restarts, 1)
	report := ChurnReport{Workers: cfg.Workers, Tasks: cfg.Tasks}
	if cfg.StateDir == "" {
		return report, fmt.Errorf("testbed: churn needs a StateDir")
	}
	f, err := boot(fixtureConfig{name: "churn", shards: 1, stateDir: cfg.StateDir, workers: cfg.Workers, payload: 1024})
	if err != nil {
		return report, err
	}
	defer f.close()

	// One broadcast genebase every worker needs, plus Tasks fault-tolerant
	// task data, distributed before the first kill so that every restart has
	// placements to lose.
	w, err := f.putWave(cfg.Tasks + 1)
	if err != nil {
		return report, err
	}
	converge := func() (time.Time, error) {
		f.pump()
		at, err := f.distributed(w)
		if err == nil {
			err = f.stopPump()
		}
		return at, err
	}
	if _, err := converge(); err != nil {
		return report, err
	}

	for r := 0; r < cfg.Restarts; r++ {
		// The plane is its one shard: between the kill and the restart there
		// is nothing up to audit, so the cycle is one step.
		if _, err := f.step(fmt.Sprintf("restart %d", r+1), func() error {
			if err := f.plane.KillShard(0); err != nil {
				return err
			}
			return f.plane.RestartShard(0) // comes back on the same endpoint
		}); err != nil {
			return report, err
		}
		report.Restarts++

		restarted := time.Now()
		reconverged, err := converge()
		if err != nil {
			return report, fmt.Errorf("after restart %d: %w", r+1, err)
		}
		report.RecoveryTime = reconverged.Sub(restarted)
	}
	if err := f.settle(); err != nil {
		return report, err
	}
	report.DataSurvived, report.LocatorsSurvived = len(w.data), len(w.data)
	return report, nil
}
