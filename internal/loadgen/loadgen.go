package loadgen

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// OpKind is one operation class of the mixed workload.
type OpKind int

// The four operation classes of the paper's service-plane traffic: writing
// a datum into the space, fetching one back, submitting a schedule order,
// and searching the catalog.
const (
	OpPut OpKind = iota
	OpFetch
	OpSchedule
	OpSearch
	NumOps
)

// String names the op class as it appears in mixes and reports.
func (k OpKind) String() string {
	switch k {
	case OpPut:
		return "put"
	case OpFetch:
		return "fetch"
	case OpSchedule:
		return "schedule"
	case OpSearch:
		return "search"
	}
	return fmt.Sprintf("op(%d)", int(k))
}

// Mix is the relative weight of each op class. A zero weight disables the
// class; an all-zero mix is invalid.
type Mix struct {
	Put, Fetch, Schedule, Search int
}

// DefaultMix is a read-heavy data-space profile: mostly fetches, a steady
// trickle of puts, schedule orders and searches.
func DefaultMix() Mix { return Mix{Put: 2, Fetch: 6, Schedule: 1, Search: 1} }

// ParseMix parses "put=2,fetch=6,schedule=1,search=1" (missing classes get
// weight 0).
func ParseMix(s string) (Mix, error) {
	var m Mix
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return m, fmt.Errorf("loadgen: mix term %q: want name=weight", part)
		}
		w, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil || w < 0 {
			return m, fmt.Errorf("loadgen: mix weight %q: want a non-negative integer", val)
		}
		switch strings.TrimSpace(name) {
		case "put":
			m.Put = w
		case "fetch":
			m.Fetch = w
		case "schedule":
			m.Schedule = w
		case "search":
			m.Search = w
		default:
			return m, fmt.Errorf("loadgen: unknown op %q (want put/fetch/schedule/search)", name)
		}
	}
	if m.total() == 0 {
		return m, fmt.Errorf("loadgen: mix %q has no positive weight", s)
	}
	return m, nil
}

// String renders the mix in ParseMix's syntax.
func (m Mix) String() string {
	return fmt.Sprintf("put=%d,fetch=%d,schedule=%d,search=%d", m.Put, m.Fetch, m.Schedule, m.Search)
}

func (m Mix) total() int { return m.Put + m.Fetch + m.Schedule + m.Search }

// pick draws an op class with probability proportional to its weight.
func (m Mix) pick(r *rand.Rand) OpKind {
	n := r.Intn(m.total())
	if n < m.Put {
		return OpPut
	}
	n -= m.Put
	if n < m.Fetch {
		return OpFetch
	}
	n -= m.Fetch
	if n < m.Schedule {
		return OpSchedule
	}
	return OpSearch
}

// Ops executes the workload's operations against the system under test.
// Each simulated client gets its own Ops instance (see Factory), so
// implementations need not be safe for concurrent use.
type Ops interface {
	// Do runs one operation of the given class, using r for any random
	// choices (target datum, payload content) so runs are reproducible per
	// seed. The returned error counts against the run's error budget.
	Do(kind OpKind, r *rand.Rand) error
	// Close releases the client's resources after the run.
	Close() error
}

// Factory builds the Ops of one simulated client. It is called once per
// client, before the clock starts.
type Factory func(client int) (Ops, error)

// Config parameterises a load run.
type Config struct {
	// Clients is the number of concurrent simulated clients (default 16).
	Clients int
	// Duration is the measured window (default 5s).
	Duration time.Duration
	// Warmup runs the workload without recording before the measured
	// window, letting caches fill and connections settle (default 0).
	Warmup time.Duration
	// Mix weights the op classes (default DefaultMix).
	Mix Mix
	// OpenLoop switches from closed-loop arrival (each client issues its
	// next op as soon as the previous returns — throughput finds its own
	// level) to open-loop arrival: operations arrive on a fixed schedule of
	// Rate ops/sec regardless of completions, and latency is measured from
	// each op's SCHEDULED arrival, so queueing delay under overload is
	// charged to the system rather than silently omitted.
	OpenLoop bool
	// Rate is the open-loop arrival rate in ops/sec across all clients
	// (required when OpenLoop).
	Rate float64
	// Seed makes op sequences reproducible (default 1).
	Seed int64
}

func (c *Config) defaults() error {
	if c.Clients <= 0 {
		c.Clients = 16
	}
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
	if c.Mix.total() == 0 {
		c.Mix = DefaultMix()
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.OpenLoop && c.Rate <= 0 {
		return fmt.Errorf("loadgen: open-loop arrival needs a positive -rate")
	}
	return nil
}

// OpStats is the measured outcome of one op class.
type OpStats struct {
	Count  uint64
	Errors uint64
	Hist   *Hist
}

// Result is the measured outcome of a run.
type Result struct {
	Config  Config
	Elapsed time.Duration
	// Ops and Errors count the MEASURED window only (warmup excluded).
	Ops    uint64
	Errors uint64
	// Shed counts open-loop arrivals dropped because every client was busy
	// and the arrival queue was full — the generator fell behind the asked
	// rate. Always 0 closed-loop.
	Shed uint64
	// PerOp holds one entry per op class with a nonzero mix weight.
	PerOp map[OpKind]*OpStats
	// All merges every class's histogram.
	All *Hist
	// ErrorSamples holds up to a handful of distinct error messages seen
	// during the measured window, so a nonzero Errors count is diagnosable
	// from the report alone.
	ErrorSamples []string
}

// Throughput returns measured ops/sec.
func (r *Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// clientState is one worker's private accounting, merged after the run.
type clientState struct {
	hists      [NumOps]Hist
	counts     [NumOps]uint64
	errors     [NumOps]uint64
	errSamples []string
}

// maxErrSamples caps the error messages each worker (and the merged result)
// retains.
const maxErrSamples = 4

// Run executes the configured workload: build one Ops per client, run the
// warmup, then drive the mixed load for the measured window and merge the
// per-client histograms. The error reports setup failures only; operation
// errors are counted in the result (callers decide whether any are
// tolerable).
func Run(cfg Config, factory Factory) (*Result, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	clients := make([]Ops, cfg.Clients)
	for i := range clients {
		ops, err := factory(i)
		if err != nil {
			for _, c := range clients[:i] {
				c.Close()
			}
			return nil, fmt.Errorf("loadgen: client %d: %w", i, err)
		}
		clients[i] = ops
	}
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()

	// measuring flips when the warmup ends; stop closes when the measured
	// window ends. Workers check both on every op.
	var measuring atomic.Bool
	stop := make(chan struct{})
	states := make([]clientState, cfg.Clients)
	var shed atomic.Uint64

	var arrivals chan time.Time
	if cfg.OpenLoop {
		// The arrival queue lets ~1s of backlog accumulate before arrivals
		// are shed (and counted): an overloaded system sees its queueing
		// delay in the latencies, but the generator itself never blocks.
		depth := int(cfg.Rate)
		if depth < cfg.Clients {
			depth = cfg.Clients
		}
		arrivals = make(chan time.Time, depth)
	}

	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(i int, ops Ops) {
			defer wg.Done()
			st := &states[i]
			r := rand.New(rand.NewSource(cfg.Seed + int64(i)*7919))
			for {
				var started time.Time
				if cfg.OpenLoop {
					select {
					case <-stop:
						return
					case started = <-arrivals:
					}
				} else {
					select {
					case <-stop:
						return
					default:
					}
					started = time.Now()
				}
				kind := cfg.Mix.pick(r)
				err := ops.Do(kind, r)
				if !measuring.Load() {
					continue
				}
				st.counts[kind]++
				if err != nil {
					st.errors[kind]++
					if len(st.errSamples) < maxErrSamples {
						st.errSamples = append(st.errSamples, fmt.Sprintf("%s: %v", kind, err))
					}
				}
				// Open-loop latency spans from the scheduled arrival, so
				// time spent queueing behind busy clients is charged.
				st.hists[kind].Record(time.Since(started))
			}
		}(i, clients[i])
	}

	if cfg.OpenLoop {
		wg.Add(1)
		go func() {
			defer wg.Done()
			interval := time.Duration(float64(time.Second) / cfg.Rate)
			if interval <= 0 {
				interval = time.Nanosecond
			}
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case now := <-tick.C:
					select {
					case arrivals <- now:
					default:
						if measuring.Load() {
							shed.Add(1)
						}
					}
				}
			}
		}()
	}

	if cfg.Warmup > 0 {
		time.Sleep(cfg.Warmup)
	}
	measuring.Store(true)
	start := time.Now()
	time.Sleep(cfg.Duration)
	measuring.Store(false)
	elapsed := time.Since(start)
	close(stop)
	wg.Wait()

	res := &Result{
		Config:  cfg,
		Elapsed: elapsed,
		Shed:    shed.Load(),
		PerOp:   make(map[OpKind]*OpStats),
		All:     &Hist{},
	}
	weights := []int{cfg.Mix.Put, cfg.Mix.Fetch, cfg.Mix.Schedule, cfg.Mix.Search}
	for kind := OpKind(0); kind < NumOps; kind++ {
		if weights[kind] == 0 {
			continue
		}
		stats := &OpStats{Hist: &Hist{}}
		for i := range states {
			stats.Count += states[i].counts[kind]
			stats.Errors += states[i].errors[kind]
			stats.Hist.Merge(&states[i].hists[kind])
		}
		res.PerOp[kind] = stats
		res.Ops += stats.Count
		res.Errors += stats.Errors
		res.All.Merge(stats.Hist)
	}
	seen := make(map[string]bool)
	for i := range states {
		for _, s := range states[i].errSamples {
			if len(res.ErrorSamples) >= maxErrSamples {
				break
			}
			if !seen[s] {
				seen[s] = true
				res.ErrorSamples = append(res.ErrorSamples, s)
			}
		}
	}
	return res, nil
}
