package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// contractFile is the benchmark's contract at the root of the repository.
// -compare takes each end-to-end metric's direction and bound from it, so
// they are written down once.
const contractFile = "BENCHMARK.json"

// gate is one end-to-end metric's direction and the share of the baseline's
// median by which it may get worse.
type gate struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "higher" or "lower"
	Bound  float64 `json:"bound"`
}

func readGates(path string) ([]gate, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w (run from the root of the repository)", err)
	}
	var file struct {
		EndToEnd []gate `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(file.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s names no end-to-end metric", path)
	}
	return file.EndToEnd, nil
}

// readSet reads a result set: a file holding the output of any number of
// untraced runs. Every line that is a full record counts; the other lines
// (the tables, the short forms) are skipped.
func readSet(path string) (map[string][]*record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := make(map[string][]*record)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 4<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 || line[0] != '{' {
			continue
		}
		var rec record
		if json.Unmarshal(line, &rec) != nil || rec.Workload == "" || rec.Trace {
			continue
		}
		set[rec.Workload] = append(set[rec.Workload], &rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("%s holds no untraced result", path)
	}
	return set, nil
}

// sameLength refuses result sets whose runs did not all measure for the same
// number of seconds: a round's length moves its medians, so runs of
// different lengths say nothing about the code.
func sameLength(sets ...map[string][]*record) error {
	seconds := 0
	for _, set := range sets {
		for _, runs := range set {
			for _, r := range runs {
				if seconds == 0 {
					seconds = r.Provenance.Seconds
				}
				if r.Provenance.Seconds != seconds {
					return fmt.Errorf("the sets hold runs of %d s and of %d s; compare runs of one length", seconds, r.Provenance.Seconds)
				}
			}
		}
	}
	return nil
}

// setMedian is the median of one metric over a workload's runs.
func setMedian(runs []*record, name string) float64 {
	var vs []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			vs = append(vs, m.Value)
		}
	}
	return median(vs)
}

// worsening is how much worse b is than a, as a share of a; negative when
// b is better.
func worsening(g gate, a, b float64) float64 {
	if g.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareFiles prints, for every workload × end-to-end metric, the two set
// medians, how much worse the second is and the bound, and returns 1 when
// any pair is out of bounds or any run of either set had a failed op.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	gates, err := readGates(contractFile)
	if err == nil {
		var a, b map[string][]*record
		if a, err = readSet(pathA); err == nil {
			if b, err = readSet(pathB); err == nil {
				if err = sameLength(a, b); err == nil {
					return compareSets(gates, a, b, stdout)
				}
			}
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 2
}

func compareSets(gates []gate, a, b map[string][]*record, w io.Writer) int {
	var names []string
	for name := range a {
		if _, ok := b[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	bad := 0
	if len(names) == 0 {
		fmt.Fprintln(w, "the two sets share no workload")
		bad++
	}
	fmt.Fprintf(w, "%-16s %-16s %12s %12s %9s %7s\n", "workload", "metric", "A median", "B median", "worse by", "bound")
	for _, name := range names {
		for _, runs := range [][]*record{a[name], b[name]} {
			for _, r := range runs {
				if r.Failed > 0 || !r.Correct {
					fmt.Fprintf(w, "%-16s a run with seed %d had %d failed ops of %d\n", name, r.Provenance.Seed, r.Failed, r.Attempted)
					bad++
				}
			}
		}
		for _, g := range gates {
			ma, mb := setMedian(a[name], g.Name), setMedian(b[name], g.Name)
			worse := worsening(g, ma, mb)
			verdict := ""
			if !(worse <= g.Bound) { // also catches a missing metric's NaN
				verdict = "  OUT OF BOUND"
				bad++
			}
			fmt.Fprintf(w, "%-16s %-16s %12.4f %12.4f %+8.1f%% %6.0f%%%s\n", name, g.Name, ma, mb, 100*worse, 100*g.Bound, verdict)
		}
		fmt.Fprintf(w, "%-16s runs: A=%d B=%d\n", name, len(a[name]), len(b[name]))
	}
	if bad > 0 {
		return 1
	}
	return 0
}
