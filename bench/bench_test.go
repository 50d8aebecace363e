package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestQuantileIsExact(t *testing.T) {
	odd := []float64{5, 1, 4, 2, 3}
	if got := median(odd); got != 3 {
		t.Errorf("median of %v = %v, want 3", odd, got)
	}
	even := []float64{4, 1, 3, 2}
	if got := median(even); got != 2.5 {
		t.Errorf("median of %v = %v, want 2.5", even, got)
	}
	hundred := make([]float64, 101) // 0..100: the q-quantile is 100q
	for i := range hundred {
		hundred[i] = float64(100 - i)
	}
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
		if got := quantile(hundred, q); math.Abs(got-100*q) > 1e-9 {
			t.Errorf("quantile(0..100, %v) = %v, want %v", q, got, 100*q)
		}
	}
	if got := quantile([]float64{10, 20}, 0.25); got != 12.5 {
		t.Errorf("quantile between ranks = %v, want 12.5", got)
	}
	if odd[0] != 5 {
		t.Error("quantile reordered its input")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

func TestMedianOfRoundsSkipsUndefinedRounds(t *testing.T) {
	if got := medianOfRounds([]float64{3, math.NaN(), 1, 2, math.NaN()}); got != 2 {
		t.Errorf("got %v, want 2", got)
	}
	if got := medianOfRounds([]float64{9, 1, 5, 7, 3}); got != 5 {
		t.Errorf("got %v, want 5", got)
	}
	if !math.IsNaN(medianOfRounds([]float64{math.NaN()})) {
		t.Error("no defined round should give NaN")
	}
}

func TestTailAndSpread(t *testing.T) {
	small := make([]float64, 100)
	big := make([]float64, 1000)
	for i := range small {
		small[i] = float64(i)
	}
	for i := range big {
		big[i] = float64(i)
	}
	if _, pct := tail(small); pct != 90 {
		t.Errorf("100 samples support the p%d, want p90", pct)
	}
	if v, pct := tail(big); pct != 99 || math.Abs(v-989.01) > 1e-9 {
		t.Errorf("1000 samples: p%d = %v, want p99 = 989.01", pct, v)
	}
	if got := spread([]float64{90, 100, 110}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("spread = %v, want 0.2", got)
	}
}

// take returns the first n ops of a fresh sequence.
func take(w *workload, seed int64, client, n int) []op {
	s := newSequence(w, seed, client)
	out := make([]op, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func TestSequenceFollowsSeed(t *testing.T) {
	for _, w := range workloads {
		for client := 0; client < numClients; client++ {
			a, b := take(w, 7, client, 500), take(w, 7, client, 500)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s client %d: the same seed gave two sequences", w.name, client)
			}
			if reflect.DeepEqual(a, take(w, 8, client, 500)) {
				t.Errorf("%s client %d: seeds 7 and 8 gave one sequence", w.name, client)
			}
			for _, o := range a {
				if w.mixes[client][o.kind] == 0 {
					t.Fatalf("%s client %d drew a %s, which its mix excludes", w.name, client, kindNames[o.kind])
				}
			}
		}
		if reflect.DeepEqual(take(w, 7, 0, 500), take(w, 7, 1, 500)) {
			t.Errorf("%s: both clients walk one sequence", w.name)
		}
	}
}

// TestFetchTargetsKeepTheirDistance holds the gap that keeps a fetch clear of
// the transfer engine's finished-download window.
func TestFetchTargetsKeepTheirDistance(t *testing.T) {
	for _, w := range workloads {
		gap := min(fetchGap, w.preload/2)
		var fetched []int
		for _, o := range take(w, 3, 1, 5000) {
			if o.kind != opFetch {
				continue
			}
			for _, earlier := range fetched[max(0, len(fetched)-gap):] {
				if earlier == o.target {
					t.Fatalf("%s: datum %d fetched again within %d fetches", w.name, o.target, gap)
				}
			}
			fetched = append(fetched, o.target)
		}
		if len(fetched) < 1000 {
			t.Fatalf("%s: client 1 fetched %d times in 5000 ops", w.name, len(fetched))
		}
	}
}

// contract is BENCHMARK.json as the tests need it.
type contract struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []gate                  `json:"end_to_end"`
	PerLayer  []gate                  `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", contractFile))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// scaled shrinks the inputs whose size only costs set-up time, so that the
// smokes stay within seconds; every code path stays the same.
func scaled(w *workload) *workload {
	s := *w
	s.preload = min(s.preload, 512)
	s.payload = min(s.payload, 1<<20)
	return &s
}

// checkRecord holds a record to its section of the contract: exactly the
// metrics named there, every one finite, units as declared, no failed op.
func checkRecord(t *testing.T, rec *record, want []gate) {
	t.Helper()
	if rec.Failed != 0 || !rec.Correct || rec.Attempted == 0 {
		t.Errorf("attempted %d, failed %d, correct %v: %v", rec.Attempted, rec.Failed, rec.Correct, rec.Errors)
	}
	for _, g := range want {
		m, ok := rec.Metrics[g.Name]
		if !ok {
			t.Errorf("metric %s is missing", g.Name)
			continue
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0 {
			t.Errorf("metric %s = %v", g.Name, m.Value)
		}
		if m.Unit != g.Unit {
			t.Errorf("metric %s has unit %q, the contract says %q", g.Name, m.Unit, g.Unit)
		}
	}
	if len(rec.Metrics) != len(want) {
		t.Errorf("%d metrics reported, the contract names %d", len(rec.Metrics), len(want))
	}
}

// TestSmoke runs one second of every workload the contract names.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a plane per workload")
	}
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("the contract names %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	for _, cw := range c.Workloads {
		t.Run(cw.Name, func(t *testing.T) {
			w, err := findWorkload(cw.Name)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := runEndToEnd(scaled(w), 1, 1, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			checkRecord(t, rec, c.EndToEnd)
			for _, g := range c.EndToEnd {
				if rec.Metrics[g.Name].Value == 0 {
					t.Errorf("end-to-end metric %s is 0", g.Name)
				}
			}
			var out bytes.Buffer
			rec.print(&out)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var short map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &short); err != nil {
				t.Fatalf("last line is not JSON: %v", err)
			}
			if len(short) != 4 {
				t.Errorf("last line has keys %v, want correct, attempted, failed, metrics", short)
			}
			// The driver reads the end-to-end metrics and nothing else; what
			// the host sets the price of is in the full record only.
			var gated map[string]metric
			if err := json.Unmarshal(short["metrics"], &gated); err != nil || len(gated) != len(c.EndToEnd) {
				t.Errorf("last line holds %d metrics (%v), the contract names %d", len(gated), err, len(c.EndToEnd))
			}
			for _, name := range []string{"ops_per_s", "goodput_mb_s", "put_p50_ms", "fetch_p50_ms", "placed_p50_ms", "cpu_ms_per_op", "alloc_kb_per_op"} {
				if v := rec.Ungated[name].Value; !(v > 0) {
					t.Errorf("ungated %s = %v", name, v)
				}
			}
		})
	}
}

// TestTooFewSamplesFailTheRun holds the sample floor: 250 per gated class,
// 100 where one op moves a mebibyte or more, and a run short of it is not
// correct.
func TestTooFewSamplesFailTheRun(t *testing.T) {
	for _, c := range []struct {
		w    *workload
		k    opKind
		want int
	}{
		{workloads[0], opPut, 250}, {workloads[0], opPlace, 250},
		{workloads[1], opPut, 100}, {workloads[1], opPlace, 100},
		{workloads[2], opFetch, 250}, {workloads[2], opPlace, 100},
		{workloads[3], opPlace, 250},
	} {
		if got := c.w.minSamples(c.k); got != c.want {
			t.Errorf("%s needs %d %s samples, want %d", c.w.name, got, kindNames[c.k], c.want)
		}
	}
	w := workloads[0]
	rec := newRecord(w, 1, runSeconds, false)
	rec.checkSamples(w, [numKinds]int{opPut: 250, opFetch: 9000, opPlace: 250}, runSeconds)
	rec.finish()
	if !rec.Correct {
		t.Errorf("a run at the floor is not correct: %v", rec.Errors)
	}
	rec.checkSamples(w, [numKinds]int{opPut: 250, opFetch: 9000, opPlace: 249}, runSeconds)
	rec.finish()
	if rec.Correct || len(rec.Errors) != 1 || !strings.Contains(rec.Errors[0], "placed_p50_ms rests on 249") {
		t.Errorf("a run one place short: correct %v, errors %v", rec.Correct, rec.Errors)
	}
}

// TestSmokeTraced runs one traced second and holds it to the per-layer half
// of the contract.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a plane and runs every layer probe")
	}
	dir := t.TempDir()
	rec, err := runTraced(workloads[0], 1, 1, dir)
	if err != nil {
		t.Fatal(err)
	}
	checkRecord(t, rec, readContract(t).PerLayer)
	// One second is a twentieth of a run, so a twentieth of its calls.
	for name, want := range map[string]int{"rpc.call_p50_us": 50, "db.compact_ms": 50, "transfer.overhead_ratio": 50, "repl.catchup_ms_per_1k_puts": 0} {
		if got := rec.ProbeCalls[name]; got != want {
			t.Errorf("%s rests on %d calls, want %d", name, got, want)
		}
	}
	spans, err := os.ReadFile(filepath.Join(dir, "trace-small-ops-seed1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got []span
	if err := json.Unmarshal(spans, &got); err != nil || len(got) == 0 {
		t.Fatalf("span dump: %d spans, %v", len(got), err)
	}
	for i, s := range got {
		if s.End < s.Start || s.Parent >= i {
			t.Fatalf("span %d %+v: ends before it starts or precedes its parent", i, s)
		}
		if s.Parent >= 0 && got[s.Parent].Op != s.Op {
			t.Fatalf("span %d %+v belongs to another op than its parent", i, s)
		}
	}
}

// TestByteCheckFailsTheOp proves the byte check is live: with one byte of
// the expected content flipped, the fetch of that datum — and only that one
// — counts as failed.
func TestByteCheckFailsTheOp(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a plane")
	}
	w := workloads[0]
	f, err := newFixture(w, 1, genContents(w, 1), t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	c := f.clients[0]
	if res := f.do(c, op{kind: opFetch, target: 3}); res.err != nil {
		t.Fatalf("fetch of intact content: %v", res.err)
	}
	f.content[3][17] ^= 0xff
	res := f.do(c, op{kind: opFetch, target: 3})
	if res.err == nil || !strings.Contains(res.err.Error(), "differ") || res.latency != 0 {
		t.Fatalf("fetch of corrupted content: %+v", res)
	}
	if res := f.do(c, op{kind: opFetch, target: 4}); res.err != nil {
		t.Fatalf("fetch of a neighbour: %v", res.err)
	}

	// The same for a put: the plane must hold what was put, not what a
	// later hand scribbled into the repository.
	if res := f.do(c, op{kind: opPut, target: 0, stamp: 42}); res.err != nil {
		t.Fatalf("put: %v", res.err)
	}
	uid := c.slots[0].UID
	backend := f.plane.Shard(c.set.ShardOf(uid)).DR.Backend()
	if err := backend.Put(string(uid), []byte("scribble")); err != nil {
		t.Fatal(err)
	}
	if err := f.checkStored(c, uid, c.buf); err == nil {
		t.Fatal("read-back of a scribbled slot passed")
	}
}

// resultSet writes runs of one workload whose metrics are base scaled by
// each factor, as -compare reads them.
func resultSet(t *testing.T, gates []gate, factors ...float64) string {
	t.Helper()
	var out bytes.Buffer
	for _, f := range factors {
		rec := newRecord(workloads[0], 1, 20, false)
		rec.Correct, rec.Attempted = true, 100
		for _, g := range gates {
			rec.set(g.Name, g.Unit, 100*f)
		}
		rec.print(&out)
	}
	path := filepath.Join(t.TempDir(), "set.json")
	if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompare(t *testing.T) {
	gates := []gate{
		{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
		{Name: "put_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	}
	sets := make(map[string]map[string][]*record)
	for name, factors := range map[string][]float64{
		"base":     {0.98, 1, 1.02},
		"4% up":    {1.03, 1.04, 1.05},
		"12% up":   {1.12, 1.12, 1.12},
		"12% down": {0.88, 0.88, 0.88},
	} {
		set, err := readSet(resultSet(t, gates, factors...))
		if err != nil {
			t.Fatal(err)
		}
		if len(set["small-ops"]) != 3 {
			t.Fatalf("%s: read %d runs, want 3", name, len(set["small-ops"]))
		}
		sets[name] = set
	}
	// Only a metric that got worse by more than its bound is out: up is
	// worse for a latency, down for a throughput.
	for name, wantOut := range map[string]string{"base": "", "4% up": "", "12% up": "put_p50_ms", "12% down": "ops_per_s"} {
		var out bytes.Buffer
		code := compareSets(gates, sets["base"], sets[name], &out)
		if wantOut == "" && code != 0 {
			t.Errorf("%s: exit %d\n%s", name, code, &out)
		}
		var flagged []string
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, "OUT OF BOUND") {
				flagged = append(flagged, strings.Fields(line)[1])
			}
		}
		if wantOut != "" && (code != 1 || len(flagged) != 1 || flagged[0] != wantOut) {
			t.Errorf("%s: exit %d with %v out of bound, want exit 1 with only %s\n%s", name, code, flagged, wantOut, &out)
		}
	}
	if _, err := readSet(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("a missing file read as a set")
	}
	if err := sameLength(sets["base"], sets["4% up"]); err != nil {
		t.Error(err)
	}
	sets["4% up"]["small-ops"][1].Provenance.Seconds = 5
	if err := sameLength(sets["base"], sets["4% up"]); err == nil {
		t.Error("runs of 20 s and of 5 s compared")
	}
}
