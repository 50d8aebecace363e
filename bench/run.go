package main

import (
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// Run shape. One run is set-up, an unmeasured warm-up of half a round and
// then measuredRounds rounds of equal, fixed length on the same plane; every
// timed value is the median of the per-round values. The round length comes
// from -seconds and is therefore the same on every commit. The 8 MiB
// workload's heap keeps growing, and its ops cost a tenth more CPU, for some
// five seconds: its first round still sees that, the median of five does
// not, and a whole round of warm-up would push the contract's 92 runs
// towards their 3420 s.
const (
	measuredRounds = 5
	// A run builds the fixture at least minSetups times and until setupTime
	// has gone into set-ups, at most maxSetups times: setup_s is the median,
	// and a set-up of 50 ms needs more than three tries to have a steady one.
	// The durable workload's set-up takes 5 to 8 s; a third one would push
	// the contract's 92 runs past their 3420 s.
	minSetups = 2
	maxSetups = 15
	setupTime = time.Second
	// maxErrSamples bounds how many failed ops a run describes.
	maxErrSamples = 5
	// Each gated class then runs alone for its counts per op, for one
	// countedShare-th of the measured length — half a second of a run's 20 —
	// in rounds of at least countedMinOps ops: an 8 MiB place takes longer
	// than such a round, and takes 18 or 19 frames with the timing of its
	// polls, so one op a round would put the median on a whole number.
	countedShare  = 40
	countedMinOps = 4
)

// clientRound is what one client did in one round.
type clientRound struct {
	lat       [numKinds][]float64 // latency of every completed op, ms
	attempted int
	failed    int
	bytes     int64
	elapsed   time.Duration
	// syncRounds counts the SyncWait steps of the completed places.
	syncRounds int
	// roundTrips sums, per class, the request frames the op put on the
	// wire (every connection); filled only in counted rounds.
	roundTrips [numKinds]uint64
	errs       []string
}

func (r *clientRound) ops() int { return r.attempted - r.failed }

// runClient walks c's sequence in a closed loop until d has passed. A counted
// round also lasts until countedMinOps ops were attempted, and reads the
// request frames of every connection around each op.
func (f *fixture) runClient(c *client, seq *sequence, d time.Duration, counted bool) clientRound {
	var r clientRound
	start := time.Now()
	for time.Since(start) < d || (counted && r.attempted < countedMinOps) {
		o := seq.next()
		var before uint64
		if counted {
			before = f.roundTrips()
		}
		res := f.do(c, o)
		r.attempted++
		if res.err != nil {
			r.failed++
			if len(r.errs) < maxErrSamples {
				r.errs = append(r.errs, kindNames[o.kind]+": "+res.err.Error())
			}
			continue
		}
		if counted {
			r.roundTrips[o.kind] += f.roundTrips() - before
		}
		r.lat[o.kind] = append(r.lat[o.kind], ms(res.latency))
		r.bytes += res.bytes
		r.syncRounds += res.syncRounds
	}
	r.elapsed = time.Since(start)
	return r
}

// roundTrips sums the request frames sent over every connection of the
// fixture: the clients' and the workers'.
func (f *fixture) roundTrips() uint64 {
	var n uint64
	for _, set := range f.sets {
		n += set.RoundTrips()
	}
	return n
}

// roundStats is one round: what each client did plus the process-wide cost.
type roundStats struct {
	clients []clientRound
	cpuMs   float64 // user + system CPU of the whole process, plane included
	allocKB float64 // runtime.MemStats.TotalAlloc delta
}

// bothClients is who runs in a measured round.
var bothClients = []int{0, 1}

// round runs the named clients concurrently for d, each walking its own
// sequence. The collector runs before the timed window, not inside it.
func (f *fixture) round(seqs []*sequence, who []int, d time.Duration, counted bool) roundStats {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu := cpuTime()

	rs := roundStats{clients: make([]clientRound, len(who))}
	var wg sync.WaitGroup
	for i, c := range who {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs.clients[i] = f.runClient(f.clients[c], seqs[c], d, counted)
		}()
	}
	wg.Wait()

	rs.cpuMs = ms(cpuTime() - cpu)
	runtime.ReadMemStats(&after)
	rs.allocKB = float64(after.TotalAlloc-before.TotalAlloc) / 1024
	return rs
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (rs *roundStats) ops() (n int) {
	for i := range rs.clients {
		n += rs.clients[i].ops()
	}
	return n
}

// opsPerSec adds up the clients' own closed-loop rates, so a client that
// overran the round's end finishing its last op is charged its own time.
func (rs *roundStats) opsPerSec() (v float64) {
	for i := range rs.clients {
		v += float64(rs.clients[i].ops()) / rs.clients[i].elapsed.Seconds()
	}
	return v
}

func (rs *roundStats) goodputMBs() (v float64) {
	for i := range rs.clients {
		v += float64(rs.clients[i].bytes) / 1e6 / rs.clients[i].elapsed.Seconds()
	}
	return v
}

// samples merges the clients' latencies of one class.
func (rs *roundStats) samples(k opKind) []float64 {
	var out []float64
	for i := range rs.clients {
		out = append(out, rs.clients[i].lat[k]...)
	}
	return out
}

// perOp divides a process-wide cost by the round's completed ops.
func (rs *roundStats) perOp(total float64) float64 {
	if n := rs.ops(); n > 0 {
		return total / float64(n)
	}
	return math.NaN()
}

// measured is the outcome of the measured rounds of one run.
type measured struct {
	rounds []roundStats
}

// measure runs the warm-up and the measured rounds with both clients.
func (f *fixture) measure(seqs []*sequence, seconds int) measured {
	d := time.Duration(seconds) * time.Second / measuredRounds
	f.round(seqs, bothClients, d/2, false)
	var m measured
	for i := 0; i < measuredRounds; i++ {
		m.rounds = append(m.rounds, f.round(seqs, bothClients, d, false))
	}
	return m
}

// counted is what one op of a class costs in counts, which do not depend on
// how fast the box happens to run: kilobytes allocated in the whole process
// and request frames put on the wire, over every connection. One value per
// counted round.
type counted struct {
	allocKB, roundTrips []float64
}

// count runs each gated class alone for d, in measuredRounds rounds: one
// client, nothing but that class, on a stream of its own. Two clients in a
// timed round finish a mix of classes that follows their relative speed, and
// the process's counters cannot tell the classes apart; alone, a count
// divides by the ops that caused it. The reported value is the median of the
// rounds, as everywhere: a map of the plane that doubles inside one round is
// half a megabyte in that round, and the deletes of what catalog-durable
// placed a second ago are a dozen frames in another, and neither is what a
// put, a fetch or a place costs. The rounds are also returned for the
// failed-op count.
func (f *fixture) count(seed int64, d time.Duration) (per [numKinds]counted, m measured) {
	for _, k := range gatedKinds {
		who := -1
		for c := range f.clients {
			if f.w.mixes[c][k] > 0 {
				who = c
			}
		}
		var only mix
		only[k] = 1
		seqs := make([]*sequence, numClients)
		seqs[who] = newSequenceOf(f.w, seed, numClients+int(k), only)
		for i := 0; i < measuredRounds; i++ {
			rs := f.round(seqs, []int{who}, d/measuredRounds, true)
			per[k].allocKB = append(per[k].allocKB, rs.perOp(rs.allocKB))
			per[k].roundTrips = append(per[k].roundTrips, rs.perOp(float64(rs.clients[0].roundTrips[k])))
			m.rounds = append(m.rounds, rs)
		}
	}
	return per, m
}

// series returns the per-round values of fn.
func (m *measured) series(fn func(*roundStats) float64) []float64 {
	out := make([]float64, len(m.rounds))
	for i := range m.rounds {
		out[i] = fn(&m.rounds[i])
	}
	return out
}

// counts totals attempted and failed ops, samples per class and the first
// few error texts over the measured rounds.
func (m *measured) counts() (attempted, failed int, perClass [numKinds]int, errs []string) {
	for i := range m.rounds {
		for _, c := range m.rounds[i].clients {
			attempted += c.attempted
			failed += c.failed
			for k := range c.lat {
				perClass[k] += len(c.lat[k])
			}
			for _, e := range c.errs {
				if len(errs) < maxErrSamples {
					errs = append(errs, e)
				}
			}
		}
	}
	return attempted, failed, perClass, errs
}

// pooled merges one class's samples over all measured rounds.
func (m *measured) pooled(k opKind) []float64 {
	var out []float64
	for i := range m.rounds {
		out = append(out, m.rounds[i].samples(k)...)
	}
	return out
}
