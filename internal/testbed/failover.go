package testbed

import (
	"cmp"
	"fmt"
	"time"
)

// The failover scenario measures the replicated plane's headline number:
// how long a key range is unreachable when its owning shard dies — from the
// kill to the first successful read through a failover-aware client, which
// covers detection (the transport error), the ownership probes, the
// successor's promotion (adopting the replicated rows into its live store)
// and the re-routed read itself. Multiple rounds alternate the kill between
// the range's candidates (kill the owner, restart it as a replica, kill the
// new owner, ...), so the measurement also exercises rejoin and repeated
// promotion, not just the first failover.

// FailoverConfig parameterises a failover-latency run.
type FailoverConfig struct {
	// Shards is the plane size (default 3).
	Shards int
	// Replicas is the replication factor (default 2).
	Replicas int
	// Data is the wave size; the victim range is the home of the first
	// datum (default 16, so every shard homes something).
	Data int
	// Rounds is how many kill→measure→restart cycles to run (default 1).
	Rounds int
}

// FailoverReport is the outcome of a failover-latency run.
type FailoverReport struct {
	Rounds int
	// Detections holds one duration per round: the kill of the victim
	// range's owner to the first successful read of a datum homed there.
	Detections []time.Duration
}

// RunFailover boots a replicated plane, puts a wave, then runs the
// kill→measure→restart cycles, auditing every datum of the wave after each
// kill (with the shard still down) and after each restart (which is also
// the convergence barrier the next kill must not race). It returns an error
// when the plane fails to converge, a failover misses the deadline, or any
// datum lost state — so tests and benchmarks can use it as an acceptance
// check.
func RunFailover(cfg FailoverConfig) (FailoverReport, error) {
	cfg.Replicas, cfg.Rounds = cmp.Or(cfg.Replicas, 2), cmp.Or(cfg.Rounds, 1)
	report := FailoverReport{Rounds: cfg.Rounds}
	if cfg.Replicas < 2 {
		return report, fmt.Errorf("testbed: failover needs replicas >= 2, got %d", cfg.Replicas)
	}
	f, err := boot(fixtureConfig{name: "failover", shards: cmp.Or(cfg.Shards, 3), replicas: cfg.Replicas})
	if err != nil {
		return report, err
	}
	defer f.close()
	w, err := f.putWave(cmp.Or(cfg.Data, 16))
	if err != nil {
		return report, err
	}
	if _, err := f.step("the put", nil); err != nil {
		return report, err
	}

	// The victim range is the home of the first datum, the witness whose
	// read proves the range is back.
	witness := *w.data[0]
	victimRange := f.set.ShardOf(witness.UID)
	for round := 0; round < cfg.Rounds; round++ {
		victim := f.set.OwnerOf(victimRange)
		var detection time.Duration
		_, err := f.step(fmt.Sprintf("round %d: killing shard %d, owner of range %d", round, victim, victimRange), func() error {
			if err := f.plane.KillShard(victim); err != nil {
				return err
			}
			// Detection-to-promoted: the first read through the range slot
			// rides the whole failover path (transport error, probes,
			// Promote, re-routed call).
			killAt := time.Now()
			for {
				_, err := f.master.BitDew.GetBytes(witness)
				if err == nil {
					break
				}
				if time.Since(killAt) > deadline {
					return fmt.Errorf("range still unreachable after %v: %w", deadline, err)
				}
			}
			detection = time.Since(killAt)
			return nil
		})
		if err != nil {
			return report, err
		}
		report.Detections = append(report.Detections, detection)

		// Restart the killed shard: it must rejoin as a replica (the
		// promoted owner keeps the range), ready to be promoted back when
		// the next round kills the current owner.
		if _, err := f.step(fmt.Sprintf("round %d: restarting shard %d", round, victim), func() error {
			return f.plane.RestartShard(victim)
		}); err != nil {
			return report, err
		}
	}
	return report, f.settle()
}
