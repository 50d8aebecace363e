// Package collective implements the programming abstractions the paper's
// conclusion names as future work for a Data Desktop Grid: sliced data,
// collective communication (broadcast is native to BitDew's replica = -1;
// this package adds scatter and gather), and distributed MapReduce. All of
// it is layered on the public BitDew API through the mw framework —
// placement, transfers, fault tolerance and cleanup remain attribute-
// driven underneath.
package collective

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"

	"bitdew/internal/codec"
	"bitdew/internal/mw"
)

// SplitBytes slices content into n near-equal contiguous parts. The last
// part absorbs the remainder; n is clamped to [1, len(content)] (an empty
// content yields one empty slice).
func SplitBytes(content []byte, n int) [][]byte {
	if n < 1 {
		n = 1
	}
	if n > len(content) && len(content) > 0 {
		n = len(content)
	}
	if len(content) == 0 {
		return [][]byte{nil}
	}
	out := make([][]byte, 0, n)
	per := len(content) / n
	off := 0
	for i := 0; i < n; i++ {
		end := off + per
		if i == n-1 {
			end = len(content)
		}
		out = append(out, content[off:end])
		off = end
	}
	return out
}

// JoinBytes reassembles slices produced by SplitBytes.
func JoinBytes(slices [][]byte) []byte {
	var total int
	for _, s := range slices {
		total += len(s)
	}
	out := make([]byte, 0, total)
	for _, s := range slices {
		out = append(out, s...)
	}
	return out
}

// sliceTaskName builds the task name of slice i of a scatter.
func sliceTaskName(name string, i int) string {
	return fmt.Sprintf("scatter:%s:%06d", name, i)
}

// Scatter distributes content in n slices across the reservoir hosts: each
// slice becomes a fault-tolerant task datum the scheduler places on
// exactly one host. Workers see slices as ordinary tasks (name
// "scatter:<name>:<index>"). All slices are submitted through the batched
// request path in a handful of round trips.
func Scatter(master *mw.Master, name string, content []byte, n int) error {
	var specs []mw.TaskSpec
	for i, slice := range SplitBytes(content, n) {
		specs = append(specs, mw.TaskSpec{Name: sliceTaskName(name, i), Input: slice, Replica: 1})
	}
	if _, err := master.SubmitAll(specs); err != nil {
		return fmt.Errorf("collective: scatter %s: %w", name, err)
	}
	return nil
}

// Gather collects the n per-slice results of a scattered computation and
// reassembles them in slice order. It drives the master's pull loop for at
// most `rounds` synchronizations.
func Gather(master *mw.Master, name string, n, rounds int) ([]byte, error) {
	results, err := master.Collect(n, rounds)
	if err != nil {
		return nil, fmt.Errorf("collective: gather %s: %w", name, err)
	}
	prefix := "scatter:" + name + ":"
	slices := make([][]byte, n)
	for _, r := range results {
		if !strings.HasPrefix(r.Task, prefix) {
			continue
		}
		idx, err := strconv.Atoi(strings.TrimPrefix(r.Task, prefix))
		if err != nil || idx < 0 || idx >= n {
			return nil, fmt.Errorf("collective: gather %s: unexpected task %q", name, r.Task)
		}
		slices[idx] = r.Content
	}
	for i, s := range slices {
		if s == nil {
			return nil, fmt.Errorf("collective: gather %s: slice %d missing", name, i)
		}
	}
	return JoinBytes(slices), nil
}

// KV is one intermediate key/value pair of a MapReduce job.
type KV struct {
	Key   string
	Value []byte
}

// MapFunc processes one input split, emitting intermediate pairs.
type MapFunc func(split []byte, emit func(key string, value []byte)) error

// ReduceFunc folds all values of one key into a final value.
type ReduceFunc func(key string, values [][]byte) ([]byte, error)

// partition assigns a key to one of r reduce partitions.
func partition(key string, r int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32()) % r
}

// WorkerFunc builds the mw task function executing both phases of a
// MapReduce job on a worker: tasks named "map:…" run mapFn and return the
// encoded intermediate pairs; tasks named "reduce:…" decode the grouped
// pairs and run reduceFn per key. Install it with mw.NewWorker.
func WorkerFunc(mapFn MapFunc, reduceFn ReduceFunc) mw.TaskFunc {
	return func(task string, input []byte, shared map[string][]byte) ([]byte, error) {
		switch {
		case strings.HasPrefix(task, "map:"):
			var kvs []KV
			err := mapFn(input, func(key string, value []byte) {
				kvs = append(kvs, KV{Key: key, Value: append([]byte(nil), value...)})
			})
			if err != nil {
				return nil, fmt.Errorf("collective: map %s: %w", task, err)
			}
			return codec.Marshal(kvs)
		case strings.HasPrefix(task, "reduce:"):
			var kvs []KV
			if err := codec.Unmarshal(input, &kvs); err != nil {
				return nil, fmt.Errorf("collective: reduce %s: decode: %w", task, err)
			}
			grouped := make(map[string][][]byte)
			var order []string
			for _, kv := range kvs {
				if _, ok := grouped[kv.Key]; !ok {
					order = append(order, kv.Key)
				}
				grouped[kv.Key] = append(grouped[kv.Key], kv.Value)
			}
			sort.Strings(order)
			var out []KV
			for _, key := range order {
				v, err := reduceFn(key, grouped[key])
				if err != nil {
					return nil, fmt.Errorf("collective: reduce %s key %q: %w", task, key, err)
				}
				out = append(out, KV{Key: key, Value: v})
			}
			return codec.Marshal(out)
		default:
			return nil, fmt.Errorf("collective: unknown task kind %q", task)
		}
	}
}

// RunMapReduce executes a complete job from the master's side: scatter the
// splits as map tasks, collect and shuffle the intermediate pairs, scatter
// r reduce tasks, and collect the final key/value table. Workers must be
// running WorkerFunc(mapFn, reduceFn). rounds bounds each phase's
// synchronization budget.
func RunMapReduce(master *mw.Master, job string, splits [][]byte, r, rounds int) (map[string][]byte, error) {
	if r < 1 {
		r = 1
	}
	// Map phase: every split submitted in one batch.
	mapSpecs := make([]mw.TaskSpec, len(splits))
	for i, split := range splits {
		mapSpecs[i] = mw.TaskSpec{Name: fmt.Sprintf("map:%s:%06d", job, i), Input: split, Replica: 1}
	}
	if _, err := master.SubmitAll(mapSpecs); err != nil {
		return nil, fmt.Errorf("collective: submitting map tasks: %w", err)
	}
	mapResults, err := master.Collect(len(splits), rounds)
	if err != nil {
		return nil, fmt.Errorf("collective: map phase: %w", err)
	}
	// Shuffle: group intermediate pairs into r partitions.
	parts := make([][]KV, r)
	for _, res := range mapResults {
		var kvs []KV
		if err := codec.Unmarshal(res.Content, &kvs); err != nil {
			return nil, fmt.Errorf("collective: intermediate of %s: %w", res.Task, err)
		}
		for _, kv := range kvs {
			p := partition(kv.Key, r)
			parts[p] = append(parts[p], kv)
		}
	}
	// Reduce phase, batched like the map phase.
	var reduceSpecs []mw.TaskSpec
	for p, kvs := range parts {
		if len(kvs) == 0 {
			continue
		}
		raw, err := codec.Marshal(kvs)
		if err != nil {
			return nil, err
		}
		reduceSpecs = append(reduceSpecs, mw.TaskSpec{
			Name: fmt.Sprintf("reduce:%s:%06d", job, p), Input: raw, Replica: 1,
		})
	}
	if _, err := master.SubmitAll(reduceSpecs); err != nil {
		return nil, fmt.Errorf("collective: submitting reduce tasks: %w", err)
	}
	reduceResults, err := master.Collect(len(reduceSpecs), rounds)
	if err != nil {
		return nil, fmt.Errorf("collective: reduce phase: %w", err)
	}
	out := make(map[string][]byte)
	for _, res := range reduceResults {
		var kvs []KV
		if err := codec.Unmarshal(res.Content, &kvs); err != nil {
			return nil, fmt.Errorf("collective: output of %s: %w", res.Task, err)
		}
		for _, kv := range kvs {
			out[kv.Key] = kv.Value
		}
	}
	return out, nil
}
