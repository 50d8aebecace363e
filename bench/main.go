// Command bench is the repository's benchmark: it boots an in-process
// runtime.ShardedContainer over loopback TCP, drives it through
// internal/core's public API with a seeded closed-loop workload,
// byte-checks every result and prints every metric by name and unit.
//
//	go run ./bench -workload small-ops [-seed N] [-trace 1]
//	go run ./bench -compare A.json B.json
//
// End-to-end metrics are measured with tracing off (-trace 0); the traced
// run (-trace 1) reports the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// stateRoot is where the runs keep what they write — a durable workload's
// StateDir, the span dump — relative to the working directory, because the
// benchmark may read and write only inside its checkout. Every StateDir is
// removed when its fixture closes; only a traced run's span dump stays.
const stateRoot = ".bench_tmp"

// runSeconds is the measured length of a run, BENCHMARK.json's run_seconds:
// five rounds of four seconds. The driver passes it as -seconds on every
// run; nothing else sets the flag, and -compare refuses to set runs of
// different lengths side by side.
const runSeconds = 20

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: small-ops, bulk-transfer, wave-distribute or catalog-durable")
	seed := fs.Int64("seed", 1, "seed of the generated op sequences and contents")
	seconds := fs.Int("seconds", runSeconds, "length of the measured window, split into 5 rounds; the driver passes the contract's run_seconds")
	trace := fs.Int("trace", 0, "1 runs the traced replay and the layer probes and reports the per-layer metrics (the driver passes 0 or 1)")
	compare := fs.Bool("compare", false, "compare two result sets: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}

	// The load shape is fixed: two clients on two cores. Pinning
	// GOMAXPROCS keeps a bigger box from changing what is measured.
	runtime.GOMAXPROCS(numClients)
	if err := os.MkdirAll(stateRoot, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	// Nothing is left behind but span dumps: the directory goes when empty.
	defer os.Remove(stateRoot)
	var rec *record
	if *trace == 1 {
		rec, err = runTraced(w, *seed, *seconds, stateRoot)
	} else {
		rec, err = runEndToEnd(w, *seed, *seconds, stateRoot)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	rec.print(stdout)
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// provenance makes a result attributable without rerunning it.
type provenance struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
}

// record is the full result of one run. It is printed as one JSON line
// that -compare reads; the line after it is the short form the driver
// reads.
type record struct {
	Workload   string     `json:"workload"`
	Trace      bool       `json:"trace"`
	Provenance provenance `json:"provenance"`
	Correct    bool       `json:"correct"`
	Attempted  int        `json:"attempted"`
	Failed     int        `json:"failed"`
	// Metrics are the run's reported values; Rounds the per-round values
	// behind each median, in round order.
	Metrics map[string]metric    `json:"metrics"`
	Rounds  map[string][]float64 `json:"rounds,omitempty"`
	// Ungated are what an untraced run measures beside its end-to-end
	// metrics: the values whose price the host sets, which the traced run
	// reports as per-layer metrics. They are printed, and gate nothing.
	Ungated map[string]metric `json:"ungated,omitempty"`
	// Samples counts the completed ops per class over the measured rounds.
	Samples map[string]int `json:"samples"`
	// ProbeCalls is how many timed calls each layer probe's value rests on.
	ProbeCalls map[string]int `json:"probe_calls,omitempty"`
	// Errors describes the first few failed ops and whatever else made the
	// run incorrect.
	Errors []string `json:"errors,omitempty"`

	// order lists the metric names in the order to print them; notes are
	// extra lines of the human-readable part.
	order  []string
	notes  []string
	faulty bool
}

func newRecord(w *workload, seed int64, seconds int, traced bool) *record {
	return &record{
		Workload: w.name,
		Trace:    traced,
		Provenance: provenance{
			Commit:     commit(),
			GoVersion:  runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
			Seed:       seed,
			Seconds:    seconds,
		},
		Metrics:    make(map[string]metric),
		Rounds:     make(map[string][]float64),
		Ungated:    make(map[string]metric),
		Samples:    make(map[string]int),
		ProbeCalls: make(map[string]int),
	}
}

// commit names the source the benchmark was built from: the revision the
// go tool stamped, else git's HEAD, else "unknown" (the driver's checkout
// is not a repository).
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// set reports one value. A value that is not a number — nothing completed
// that it measures — makes the run incorrect and is written as -1, JSON
// having no NaN.
func (r *record) set(name, unit string, v float64) {
	r.put(r.Metrics, name, unit, v)
}

func (r *record) put(into map[string]metric, name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fault(fmt.Errorf("metric %s is not a number: nothing completed that it measures", name))
		v = -1
	}
	if _, dup := into[name]; !dup {
		r.order = append(r.order, name)
	}
	into[name] = metric{Value: v, Unit: unit}
}

// setRounds reports the median of the per-round values and keeps them, a
// round in which the value was undefined as -1.
func (r *record) setRounds(name, unit string, rounds []float64) {
	r.putRounds(r.Metrics, name, unit, rounds)
}

func (r *record) putRounds(into map[string]metric, name, unit string, rounds []float64) {
	r.put(into, name, unit, medianOfRounds(rounds))
	kept := make([]float64, len(rounds))
	for i, v := range rounds {
		if kept[i] = v; math.IsNaN(v) {
			kept[i] = -1
		}
	}
	r.Rounds[name] = kept
}

// fault marks the run incorrect for a reason other than a failed op.
func (r *record) fault(err error) {
	r.faulty = true
	r.Errors = append(r.Errors, err.Error())
}

// finish fills the counts in from the rounds the run made. A run is correct
// when no op failed and nothing else was found at fault.
func (r *record) finish(ms ...*measured) {
	for _, m := range ms {
		attempted, failed, perClass, errs := m.counts()
		r.Attempted += attempted
		r.Failed += failed
		for k, n := range perClass {
			r.Samples[kindNames[k]] += n
		}
		r.Errors = append(r.Errors, errs...)
	}
	r.Correct = r.Failed == 0 && !r.faulty
}

// print writes the human-readable table, then the full record as one JSON
// line, then — last — the short form of the contract.
func (r *record) print(w io.Writer) {
	p := r.Provenance
	fmt.Fprintf(w, "workload %s  trace=%v  seed=%d  seconds=%d  commit=%s  %s  GOMAXPROCS=%d  nproc=%d\n",
		r.Workload, r.Trace, p.Seed, p.Seconds, p.Commit, p.GoVersion, p.GOMAXPROCS, p.NumCPU)
	fmt.Fprintf(w, "ops attempted=%d failed=%d  samples", r.Attempted, r.Failed)
	for _, k := range kindNames {
		fmt.Fprintf(w, " %s=%d", k, r.Samples[k])
	}
	fmt.Fprintln(w)
	for _, e := range r.Errors {
		fmt.Fprintln(w, "error:", e)
	}
	for _, name := range r.order {
		m, gated := r.Metrics[name]
		label := name
		if !gated {
			m = r.Ungated[name]
			label += " (ungated)"
		}
		fmt.Fprintf(w, "%-40s %14.4f %-6s", label, m.Value, m.Unit)
		if rounds := r.Rounds[name]; len(rounds) > 0 {
			fmt.Fprint(w, "  rounds")
			for _, v := range rounds {
				fmt.Fprintf(w, " %.4f", v)
			}
		}
		if n, ok := r.ProbeCalls[name]; ok {
			fmt.Fprintf(w, "  calls %d", n)
		}
		fmt.Fprintln(w)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}

	full, err := json.Marshal(r)
	if err != nil {
		panic(err) // a record holds only finite numbers and strings
	}
	fmt.Fprintf(w, "%s\n", full)
	short, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(w, "%s\n", short)
}

// runEndToEnd is the untraced run: the fixture is set up several times for
// setup_s, and the last one is measured.
func runEndToEnd(w *workload, seed int64, seconds int, stateRoot string) (*record, error) {
	rec := newRecord(w, seed, seconds, false)
	content := genContents(w, seed)
	var f *fixture
	var setupS []float64
	spent := 0.0
	for len(setupS) < minSetups || (spent < setupTime.Seconds() && len(setupS) < maxSetups) {
		if f != nil {
			if err := f.close(); err != nil {
				return nil, err
			}
		}
		// Collect what the last fixture left behind, so that every set-up
		// starts from the same heap rather than pays for its predecessor.
		runtime.GC()
		var err error
		if f, err = newFixture(w, seed, content, stateRoot, nil); err != nil {
			return nil, err
		}
		setupS = append(setupS, f.setupS)
		spent += f.setupS
	}
	defer f.close()

	m := f.measure(newSequences(w, seed), seconds)
	per, cm := f.count(seed, time.Duration(seconds)*time.Second/countedShare)
	if err := f.converged(); err != nil {
		rec.fault(err)
	}
	rec.setRounds("setup_s", "s", setupS)
	for _, k := range gatedKinds {
		rec.setRounds("alloc_kb_per_"+kindNames[k], "KB", per[k].allocKB)
	}
	for _, k := range gatedKinds {
		rec.setRounds("round_trips_per_"+kindNames[k], "count", per[k].roundTrips)
	}
	hostPriced(rec, rec.Ungated, "", &m)
	_, _, samples, _ := m.counts()
	rec.checkSamples(w, samples, seconds)
	rec.finish(&m, &cm)
	return rec, nil
}

// checkSamples makes a run of full length incorrect when a gated class
// completed fewer ops than its median needs. A shorter run — a test's smoke
// — promises no sample count.
func (r *record) checkSamples(w *workload, samples [numKinds]int, seconds int) {
	if seconds < runSeconds {
		return
	}
	for _, k := range gatedKinds {
		if want := w.minSamples(k); samples[k] < want {
			r.fault(fmt.Errorf("%s_p50_ms rests on %d samples, the run shape promises %d", latencyNames[k], samples[k], want))
		}
	}
}

func newSequences(w *workload, seed int64) []*sequence {
	seqs := make([]*sequence, numClients)
	for i := range seqs {
		seqs[i] = newSequence(w, seed, i)
	}
	return seqs
}

// hostPriced reports what the measured rounds say in units the host sets the
// price of: rates, CPU time and the median latencies. On this shared box one
// common factor moves whatever is CPU-bound by up to a half for tens of
// minutes at a time, so they gate nothing: an untraced run prints them as
// ungated, the traced run as per-layer metrics under prefix. placed_p50_ms
// is the 5 ms poll of SyncWait on two workloads and CPU-bound on the other
// two, and a metric is gated on all four or on none. alloc_kb_per_op is with
// them because two clients' mix of classes follows their relative speed.
func hostPriced(rec *record, into map[string]metric, prefix string, m *measured) {
	rec.putRounds(into, prefix+"ops_per_s", "1/s", m.series((*roundStats).opsPerSec))
	rec.putRounds(into, prefix+"goodput_mb_s", "MB/s", m.series((*roundStats).goodputMBs))
	rec.putRounds(into, prefix+"put_p50_ms", "ms", m.latencyP50(opPut))
	rec.putRounds(into, prefix+"fetch_p50_ms", "ms", m.latencyP50(opFetch))
	rec.putRounds(into, prefix+"placed_p50_ms", "ms", m.latencyP50(opPlace))
	rec.putRounds(into, prefix+"cpu_ms_per_op", "ms", m.series(func(rs *roundStats) float64 { return rs.perOp(rs.cpuMs) }))
	rec.putRounds(into, prefix+"alloc_kb_per_op", "KB", m.series(func(rs *roundStats) float64 { return rs.perOp(rs.allocKB) }))
}

// latencyP50 is class k's median latency in each round.
func (m *measured) latencyP50(k opKind) []float64 {
	return m.series(func(rs *roundStats) float64 { return median(rs.samples(k)) })
}
