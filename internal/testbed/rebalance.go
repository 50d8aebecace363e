package testbed

import (
	"cmp"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bitdew/internal/core"
	"bitdew/internal/data"
)

// The rebalance scenario measures the elastic plane's headline claim: a
// BLAST-style workload keeps flowing, uninterrupted, while the plane grows
// underneath it — and the grown plane is measurably faster. The run
// distributes one wave on the starting plane, measures a closed-loop
// catalog-read window (the baseline), grows the plane shard by shard WHILE
// a second wave distributes (any worker or client error during that window
// is a correctness failure — the paper's promise is zero client-visible
// unavailability), distributes a third wave on the grown plane, and
// re-measures the same read window (the scaled number). The measured op is
// one home-routed catalog Get — exactly one rpc frame — under the same
// serve-limit + injected-service-time capacity model as the shard-scaling
// scenario, so each shard serializes its own frames and baseline→scaled is
// a genuine capacity measurement, not a cache artifact. The plane is
// audited after every grow step and at the end.

// ScaleOutConfig parameterises a live scale-out run.
type ScaleOutConfig struct {
	// StartShards is the plane size before growth (default 2).
	StartShards int
	// EndShards is the plane size after growth (default 4).
	EndShards int
	// Workers is the number of reservoir hosts pulling the schedulers
	// (default 4).
	Workers int
	// Tasks is the number of replica-1 task data per wave (default 32);
	// one broadcast datum rides along per wave, as in the BLAST deployment.
	Tasks int
	// PayloadBytes sizes each payload (default 256).
	PayloadBytes int
	// ServiceTime, when set, models each service host's per-frame
	// processing cost (serve limit 1 + injected latency). Zero runs the
	// plane unthrottled (functional tests).
	ServiceTime time.Duration
}

const (
	// readOps is how many closed-loop catalog reads each measured window
	// issues.
	readOps = 400
	// readClients is the closed-loop concurrency of the measured windows —
	// enough in-flight frames to keep every shard's serializer busy, so the
	// windows measure plane capacity.
	readClients = 32
)

// ScaleOutReport is the outcome of a live scale-out run.
type ScaleOutReport struct {
	Tasks int
	// BaselineTime / ScaledTime are the measured closed-loop read windows
	// on the starting and grown planes; the throughputs are reads per
	// second over those windows.
	BaselineTime       time.Duration
	ScaledTime         time.Duration
	BaselineThroughput float64
	ScaledThroughput   float64
	// Speedup is ScaledThroughput / BaselineThroughput — the acceptance
	// number (the grown plane must actually be faster).
	Speedup float64
	// GrowSteps holds one duration per AddShard: stage + cutover + commit
	// wall time for that step, measured under live traffic.
	GrowSteps []time.Duration
	// EpochBefore / EpochAfter bracket the growth: every AddShard bumps
	// the membership epoch by one.
	EpochBefore, EpochAfter uint64
	// PerShardData counts all three waves' data by final home shard.
	PerShardData []int
}

// measureReads runs one closed-loop read window: readClients goroutines
// share a counter of readOps catalog Gets, each routed to the key's home
// shard — one rpc frame per op, so under the capacity model the window's
// rate is the plane's aggregate frame capacity.
func measureReads(set *core.ShardSet, wave []*data.Data) (time.Duration, error) {
	var next atomic.Int64
	var failed atomic.Pointer[error]
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < readClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < readOps; i = next.Add(1) - 1 {
				d := wave[int(i)%len(wave)]
				if _, err := set.For(d.UID).DC.Get(d.UID); err != nil {
					err = fmt.Errorf("read %s: %w", d.Name, err)
					failed.CompareAndSwap(nil, &err)
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := failed.Load(); err != nil {
		return elapsed, *err
	}
	return elapsed, nil
}

// RunScaleOut runs the scenario: boot an elastic StartShards-plane, measure
// a baseline read window, grow the plane to EndShards while a second wave
// distributes (live traffic across every stage/cutover/commit), distribute a
// third wave on the grown plane, and measure the same window again. It
// returns an error when any wave misses its deadline, any worker or client
// call fails during the growth window, the epoch fails to advance once per
// added shard, the grown placement leaves a new shard empty, or an audit —
// after each grow step, and over all three waves at the end — finds a datum
// that lost state, so tests and benchmarks can use it as an acceptance check.
func RunScaleOut(cfg ScaleOutConfig) (ScaleOutReport, error) {
	cfg.StartShards, cfg.EndShards = cmp.Or(cfg.StartShards, 2), cmp.Or(cfg.EndShards, 4)
	cfg.Workers, cfg.Tasks = cmp.Or(cfg.Workers, 4), cmp.Or(cfg.Tasks, 32)
	report := ScaleOutReport{Tasks: cfg.Tasks}
	if cfg.EndShards <= cfg.StartShards {
		return report, fmt.Errorf("testbed: scale-out needs EndShards > StartShards, got %d -> %d", cfg.StartShards, cfg.EndShards)
	}
	f, err := boot(fixtureConfig{
		name: "scaleout", shards: cfg.StartShards, serviceTime: cfg.ServiceTime,
		workers: cfg.Workers, payload: cfg.PayloadBytes,
	})
	if err != nil {
		return report, err
	}
	defer f.close()

	// Workers pull continuously for the WHOLE run — through the baseline,
	// straight across every grow step, into the scaled window. A worker
	// error anywhere is client-visible unavailability, and fails the run.
	f.pump()
	blast := func() (*wave, error) {
		w, err := f.putWave(cfg.Tasks + 1)
		if err == nil {
			_, err = f.distributed(w)
		}
		return w, err
	}

	// Distribute the first wave on the starting plane, then measure the
	// baseline read window against it.
	base, err := blast()
	if err != nil {
		return report, err
	}
	if report.BaselineTime, err = measureReads(f.set, base.data); err != nil {
		return report, fmt.Errorf("testbed: scale-out: baseline window: %w", err)
	}
	report.BaselineThroughput = readOps / report.BaselineTime.Seconds()
	report.EpochBefore = f.plane.Epoch()

	// Growth under live traffic: a second wave distributes while AddShard
	// stages, cuts over and commits each new shard. The wave goroutine and
	// the grow loop genuinely overlap — that concurrency is the scenario.
	live := make(chan error, 1)
	go func() {
		_, err := blast()
		live <- err
	}()
	for f.plane.N() < cfg.EndShards {
		took, err := f.step(fmt.Sprintf("AddShard at %d shards", f.plane.N()), func() error {
			_, err := f.plane.AddShard()
			return err
		})
		if err != nil {
			<-live
			return report, err
		}
		report.GrowSteps = append(report.GrowSteps, took)
	}
	if err := <-live; err != nil {
		return report, fmt.Errorf("live wave during growth: %w", err)
	}
	report.EpochAfter = f.plane.Epoch()
	if want := report.EpochBefore + uint64(cfg.EndShards-cfg.StartShards); report.EpochAfter != want {
		return report, fmt.Errorf("testbed: scale-out: epoch %d after growth, want %d", report.EpochAfter, want)
	}

	// Distribute a third wave on the grown plane (it must still move a whole
	// wave end to end, and by then every worker's heartbeat has reached every
	// new shard), then re-measure the same keys as the baseline window — they
	// have been re-homed across EndShards serializers — with the workers
	// still syncing, so both windows carry the same kind of background load.
	if _, err := blast(); err != nil {
		return report, err
	}
	if report.ScaledTime, err = measureReads(f.set, base.data); err != nil {
		return report, fmt.Errorf("testbed: scale-out: scaled window: %w", err)
	}
	report.ScaledThroughput = readOps / report.ScaledTime.Seconds()
	report.Speedup = report.ScaledThroughput / report.BaselineThroughput
	if err := f.settle(); err != nil {
		return report, err
	}

	// The growth must have actually spread the keys — a new shard that homes
	// nothing means the cutover never happened.
	report.PerShardData = make([]int, cfg.EndShards)
	for _, w := range f.waves {
		for _, d := range w.data {
			report.PerShardData[f.set.ShardOf(d.UID)]++
		}
	}
	for s := cfg.StartShards; s < cfg.EndShards; s++ {
		if report.PerShardData[s] == 0 {
			return report, fmt.Errorf("testbed: scale-out: new shard %d homes no data", s)
		}
	}
	return report, nil
}

// DrainConfig parameterises a live drain (scale-in) run.
type DrainConfig struct {
	// Shards is the plane size before the drain (default 3).
	Shards int
	// Tasks is the wave size (default 24).
	Tasks int
}

// DrainReport is the outcome of a drain run.
type DrainReport struct {
	// Drained is the index of the retired shard.
	Drained int
	// DrainTime is the stage-to-commit wall time of the drain.
	DrainTime time.Duration
}

// RunDrain runs the scale-in scenario: boot an elastic plane, put a wave,
// drain the last shard, and release the drained container (its endpoints
// die). The plane is audited after the drain and again after the release,
// when every read must resolve through the survivors; it returns an error
// when the drain loses or corrupts any datum, so tests can use it as an
// acceptance check.
func RunDrain(cfg DrainConfig) (DrainReport, error) {
	report := DrainReport{Drained: -1}
	f, err := boot(fixtureConfig{name: "drain", shards: cmp.Or(cfg.Shards, 3)})
	if err != nil {
		return report, err
	}
	defer f.close()
	if _, err := f.putWave(cmp.Or(cfg.Tasks, 24)); err != nil {
		return report, err
	}
	report.DrainTime, err = f.step("DrainShard", func() error {
		var err error
		report.Drained, err = f.plane.DrainShard()
		return err
	})
	if err != nil {
		return report, err
	}
	// From here the retired container's endpoints are dead: nothing may
	// still depend on the drained shard, and the audit that ends the run
	// says so.
	_, err = f.step("releasing the drained shard", f.plane.ReleaseDrained)
	return report, err
}
