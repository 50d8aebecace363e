package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// replaySlices is how many times the replay alternates between untraced and
// traced slices per client, so that a slow moment of the box falls on both
// sides of the overhead ratio.
const replaySlices = 2

// runTraced is the traced run. On one plane it measures, in order:
//
//  1. the same five two-client rounds as an end-to-end run, tracing off —
//     for the tails and the round spread;
//  2. the replay: each client's sequence from its start again, ONE client
//     at a time so that spans nest by interval, for a third of the run's
//     length with tracing on and as long with tracing off;
//  3. the layer probes.
//
// Nothing it prints is an end-to-end metric.
func runTraced(w *workload, seed int64, seconds int, stateRoot string) (*record, error) {
	rec := newRecord(w, seed, seconds, true)
	tr := newTracer()
	f, err := newFixture(w, seed, genContents(w, seed), stateRoot, tr)
	if err != nil {
		return nil, err
	}
	defer f.close()
	rec.set("runtime.boot_ms", "ms", f.bootMs)
	rec.set("runtime.preload_ms", "ms", f.preloadMs)

	m := f.measure(newSequences(w, seed), seconds)
	for k, name := range [numKinds]string{"core.put_p99_ms", "core.fetch_p99_ms", "core.search_p99_ms", "core.placed_p99_ms"} {
		v, pct := tail(m.pooled(opKind(k)))
		rec.set(name, "ms", v)
		if pct != 99 {
			rec.notes = append(rec.notes, fmt.Sprintf("%s is the p%d: under 1000 samples", name, pct))
		}
	}
	// Search is load on every workload but no end-to-end metric; its
	// median is read here.
	rec.set("core.search_p50_ms", "ms", median(m.pooled(opSearch)))
	hostPriced(rec, rec.Metrics, "core.", &m)
	rec.set("bench.round_spread", "ratio", spread(m.series((*roundStats).opsPerSec)))

	rp := f.replay(seed, time.Duration(seconds)*time.Second/3)
	if err := f.converged(); err != nil {
		rec.fault(err)
	}
	rec.set("bench.trace_overhead_ratio", "ratio", rp.traced.rate()/rp.untraced.rate())
	all := rp.all()
	rec.set("scheduler.sync_rounds_per_place", "count", float64(all.syncRounds())/float64(max(len(all.pooled(opPlace)), 1)))

	scratch, err := os.MkdirTemp(stateRoot, "probe-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	p := &prober{f: f, rec: rec, seconds: seconds, scratch: scratch}
	ch := p.run()
	if p.err != nil {
		return nil, p.err
	}

	// How much of a lone client's put and fetch the chain of layer probes
	// accounts for. A frame that carries two calls costs one round trip,
	// hence the call subtracted; only a locator-cache miss looks up.
	frame := ch.register + ch.locator - ch.call
	put := frame + ch.putLocal + ch.upload + ch.addLocator
	lookup := ch.locators + ch.locator - ch.call
	fetch := rp.missRatio*lookup + ch.download + ch.fetchLocal
	rec.set("core.put_explained_ratio", "ratio", put*1e3/median(rp.untraced.pooled(opPut)))
	rec.set("core.fetch_explained_ratio", "ratio", fetch*1e3/median(rp.untraced.pooled(opFetch)))
	rec.notes = append(rec.notes, fmt.Sprintf("locator cache miss ratio in the replay: %.3f", rp.missRatio))

	path := filepath.Join(stateRoot, fmt.Sprintf("trace-%s-seed%d.json", w.name, seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	rec.notes = append(rec.notes, fmt.Sprintf("%d spans written to %s; by name (count, total ms, self ms):", len(tr.spans), path))
	for _, st := range tr.summarize() {
		rec.notes = append(rec.notes, fmt.Sprintf("  %-32s %8d %12.2f %12.2f", st.Name, st.Count, st.TotalMs, st.SelfMs))
	}
	rec.finish(&m, &rp.untraced, &rp.traced)
	rec.set("bench.failed_op_ratio", "ratio", float64(rec.Failed)/float64(max(rec.Attempted, 1)))
	return rec, nil
}

// replayed is the outcome of the single-client replay.
type replayed struct {
	untraced, traced measured
	// missRatio is the share of fetches whose locators were not cached.
	missRatio float64
}

// all is both halves of the replay.
func (r *replayed) all() *measured {
	return &measured{rounds: append(append([]roundStats(nil), r.untraced.rounds...), r.traced.rounds...)}
}

// replay walks each client's sequence from the start again, alone, in
// alternating untraced and traced slices that add up to d per side. Both
// sides walk the same ops: each has its own copy of the sequences.
func (f *fixture) replay(seed int64, d time.Duration) replayed {
	var rp replayed
	seqs := [2][]*sequence{newSequences(f.w, seed), newSequences(f.w, seed)}
	slice := d / (replaySlices * numClients)
	hits0, misses0 := f.locatorCacheStats()
	for s := 0; s < replaySlices; s++ {
		for c := range f.clients {
			rp.untraced.rounds = append(rp.untraced.rounds, f.round(seqs[0], []int{c}, slice, false))
			f.tr.on.Store(true)
			rp.traced.rounds = append(rp.traced.rounds, f.round(seqs[1], []int{c}, slice, false))
			f.tr.on.Store(false)
		}
	}
	hits, misses := f.locatorCacheStats()
	if lookups := hits - hits0 + misses - misses0; lookups > 0 {
		rp.missRatio = float64(misses-misses0) / float64(lookups)
	}
	return rp
}

// locatorCacheStats sums the two clients' locator-cache counters.
func (f *fixture) locatorCacheStats() (hits, misses uint64) {
	for _, c := range f.clients {
		h, m := c.set.LocatorCacheStats()
		hits, misses = hits+h, misses+m
	}
	return hits, misses
}

// rate is completed ops per second of client time over all rounds.
func (m *measured) rate() float64 {
	var ops int
	var elapsed time.Duration
	for i := range m.rounds {
		for _, c := range m.rounds[i].clients {
			ops += c.ops()
			elapsed += c.elapsed
		}
	}
	return float64(ops) / elapsed.Seconds()
}

func (m *measured) syncRounds() (n int) {
	for i := range m.rounds {
		for _, c := range m.rounds[i].clients {
			n += c.syncRounds
		}
	}
	return n
}
