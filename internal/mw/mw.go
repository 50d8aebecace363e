// Package mw is a Master/Worker framework built entirely on BitDew's
// public API, following the data-driven design of paper §5: instead of a
// scheduler pushing tasks at workers, data are scheduled to hosts and
// computation reacts to data-copy events.
//
//   - The master shares common inputs (application binary, genebase) with
//     broadcast or affinity attributes, submits each task as a small input
//     datum, and pins an empty Collector.
//   - Workers react to task-data copies: once the shared dependencies have
//     arrived (the scheduler's affinity attribute drags them along), the
//     task function runs and its output is scheduled back with affinity to
//     the Collector and a relative lifetime bound to it.
//   - Results therefore flow to the master automatically, tasks on crashed
//     workers are re-scheduled through the fault-tolerance attribute, and
//     deleting the Collector obsoletes every intermediate datum at the
//     workers' next synchronization — the paper's cleanup idiom.
package mw

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"bitdew/internal/attr"
	"bitdew/internal/core"
	"bitdew/internal/data"
)

// Attribute names recognised by the framework.
const (
	attrTask   = "Task"
	attrResult = "Result"
	// TaskPrefix namespaces task data names.
	TaskPrefix = "task:"
	// ResultPrefix namespaces result data names.
	ResultPrefix = "result:"
)

// Result is one completed task delivered to the master. Content is the
// master's stored copy of the result: read it, never write it.
type Result struct {
	Task    string
	Content []byte
}

// Master drives a data-driven master/worker computation.
type Master struct {
	node      *core.Node
	collector *data.Data

	mu        sync.Mutex
	delivered map[string]bool
	results   chan Result
	submitted int
}

// NewMaster attaches a master to a node: it marks the node a client host
// (masters receive results through affinity, never replica placements),
// pins an empty Collector and installs the result-collection callback.
func NewMaster(node *core.Node) (*Master, error) {
	node.SetClientOnly(true)
	collector, err := node.BitDew.CreateData("Collector")
	if err != nil {
		return nil, fmt.Errorf("mw: creating collector: %w", err)
	}
	if err := node.ActiveData.Pin(*collector, attr.Attribute{Name: "Collector"}); err != nil {
		return nil, fmt.Errorf("mw: pinning collector: %w", err)
	}
	m := &Master{
		node:      node,
		collector: collector,
		delivered: make(map[string]bool),
		results:   make(chan Result, 1024),
	}
	node.ActiveData.AddCallback(core.EventHandler{OnDataCopy: m.onCopy})
	return m, nil
}

// Collector exposes the pinned collector datum (workers bind result
// affinity and lifetimes to it).
func (m *Master) Collector() data.Data { return *m.collector }

// onCopy collects Result data landing on the master, de-duplicating
// replicated executions (replica >= 2 tasks legitimately produce the same
// result twice; the paper defers majority voting to a result certifier).
func (m *Master) onCopy(e core.Event) {
	if e.Attr.Name != attrResult {
		return
	}
	task := strings.TrimPrefix(e.Data.Name, ResultPrefix)
	m.mu.Lock()
	if m.delivered[task] {
		m.mu.Unlock()
		return
	}
	m.delivered[task] = true
	m.mu.Unlock()
	content, err := m.node.Backend().Get(string(e.Data.UID))
	if err != nil {
		return
	}
	m.results <- Result{Task: task, Content: content}
}

// Share publishes a common input under the given attribute definition
// (e.g. the paper's Listing 3 attributes). The attribute is parsed with
// the framework's attribute language.
func (m *Master) Share(name string, content []byte, attrSpec string) (data.Data, error) {
	a, err := attr.Parse(attrSpec)
	if err != nil {
		return data.Data{}, err
	}
	d, err := m.node.BitDew.CreateData(name)
	if err != nil {
		return data.Data{}, err
	}
	if err := m.node.BitDew.Put(d, content); err != nil {
		return data.Data{}, err
	}
	// Bind shared data to the collector's lifetime so Shutdown cleans up.
	if a.LifetimeRel == "" {
		a.LifetimeRel = string(m.collector.UID)
	}
	if err := m.node.ActiveData.Schedule(*d, a); err != nil {
		return data.Data{}, err
	}
	return *d, nil
}

// TaskSpec describes one task for SubmitAll.
type TaskSpec struct {
	// Name identifies the task (namespaced under TaskPrefix).
	Name string
	// Input is the task datum's content.
	Input []byte
	// Replica is the number of workers the task is distributed to
	// (clamped to ≥ 1).
	Replica int
}

// Submit schedules one task: input content distributed to `replica`
// workers with fault tolerance on, so a crashed worker's task re-runs
// elsewhere (paper §5's Sequence attribute). It is the single-task wrapper
// over SubmitAll; a master with a task list should submit it in one batch.
func (m *Master) Submit(name string, input []byte, replica int) (data.Data, error) {
	ds, err := m.SubmitAll([]TaskSpec{{Name: name, Input: input, Replica: replica}})
	if err != nil {
		return data.Data{}, err
	}
	return ds[0], nil
}

// SubmitAll submits N tasks through the batch-first request path: one
// catalog round trip creates every slot, one PutAll moves all inputs to the
// repository (2 more round trips plus the out-of-band uploads), and one
// batched frame schedules them — instead of 5·N sequential service calls.
// This is what keeps a master submitting 10k tasks from dying of per-datum
// round trips (the paper's §4 fine-grain-access bottleneck).
func (m *Master) SubmitAll(specs []TaskSpec) ([]data.Data, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	names := make([]string, len(specs))
	inputs := make([][]byte, len(specs))
	attrs := make([]attr.Attribute, len(specs))
	for i, s := range specs {
		names[i] = TaskPrefix + s.Name
		inputs[i] = s.Input
		replica := s.Replica
		if replica < 1 {
			replica = 1
		}
		attrs[i] = attr.Attribute{
			Name: attrTask, Replica: replica, FaultTolerant: true,
			Protocol: "http", LifetimeRel: string(m.collector.UID),
		}
	}
	ds, err := m.node.BitDew.CreateDataBatch(names)
	if err != nil {
		return nil, fmt.Errorf("mw: submit batch of %d: %w", len(specs), err)
	}
	if err := m.node.BitDew.PutAll(ds, inputs); err != nil {
		return nil, fmt.Errorf("mw: submit batch of %d: %w", len(specs), err)
	}
	out := make([]data.Data, len(ds))
	for i, d := range ds {
		out[i] = *d
	}
	if err := m.node.ActiveData.ScheduleAll(out, attrs); err != nil {
		return nil, fmt.Errorf("mw: submit batch of %d: %w", len(specs), err)
	}
	m.mu.Lock()
	m.submitted += len(specs)
	m.mu.Unlock()
	return out, nil
}

// Results returns the channel of de-duplicated task results.
func (m *Master) Results() <-chan Result { return m.results }

// Collect drives the master's pull loop until want results have arrived or
// rounds synchronizations have elapsed, pausing briefly between empty
// rounds so concurrently syncing workers can make progress.
func (m *Master) Collect(want, rounds int) ([]Result, error) {
	var out []Result
	for i := 0; i < rounds && len(out) < want; i++ {
		if err := m.node.SyncWait(1); err != nil {
			return out, err
		}
		progressed := false
		for len(out) < want {
			select {
			case r := <-m.results:
				out = append(out, r)
				progressed = true
				continue
			default:
			}
			break
		}
		if !progressed {
			time.Sleep(20 * time.Millisecond)
		}
	}
	if len(out) < want {
		return out, fmt.Errorf("mw: collected %d/%d results after %d rounds", len(out), want, rounds)
	}
	return out, nil
}

// Shutdown deletes the Collector, which obsoletes every datum whose
// lifetime is bound to it: workers purge their caches at the next sync.
func (m *Master) Shutdown() error {
	return m.node.BitDew.DeleteData(*m.collector)
}

// TaskFunc computes one task: input is the task datum's content, shared
// maps each shared datum's name to its local content. Both are the worker's
// stored copies, so a TaskFunc reads them and never writes them; one that
// must write its input copies it first.
type TaskFunc func(task string, input []byte, shared map[string][]byte) ([]byte, error)

// Worker executes tasks arriving through data placement.
type Worker struct {
	node *core.Node
	fn   TaskFunc
	// needs lists shared data names that must be cached before any task
	// runs (the BLAST worker needs the Application and the Genebase).
	needs []string

	mu      sync.Mutex
	shared  map[string][]byte
	pending []pendingTask
	done    map[string]bool
	errs    []error
}

type pendingTask struct {
	d data.Data
}

// NewWorker attaches a worker to a node. fn runs for every task datum
// copied to the node once every name in needs is locally cached.
func NewWorker(node *core.Node, needs []string, fn TaskFunc) *Worker {
	w := &Worker{
		node:   node,
		fn:     fn,
		needs:  needs,
		shared: make(map[string][]byte),
		done:   make(map[string]bool),
	}
	node.ActiveData.AddCallback(core.EventHandler{
		OnDataCopy:   w.onCopy,
		OnDataDelete: w.onDelete,
	})
	return w
}

// Errs returns task-execution errors observed so far.
func (w *Worker) Errs() []error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]error(nil), w.errs...)
}

func (w *Worker) onCopy(e core.Event) {
	switch e.Attr.Name {
	case attrTask:
		w.mu.Lock()
		w.pending = append(w.pending, pendingTask{d: e.Data})
		w.mu.Unlock()
	case attrResult:
		return // other workers' results (replica routing), ignore
	default:
		// A shared input landed.
		content, err := w.node.Backend().Get(string(e.Data.UID))
		if err == nil {
			w.mu.Lock()
			w.shared[e.Data.Name] = content
			w.mu.Unlock()
		}
	}
	w.runReady()
}

func (w *Worker) onDelete(e core.Event) {
	w.mu.Lock()
	defer w.mu.Unlock()
	delete(w.shared, e.Data.Name)
}

// ready reports whether all shared dependencies are present.
func (w *Worker) ready() bool {
	for _, n := range w.needs {
		if _, ok := w.shared[n]; !ok {
			return false
		}
	}
	return true
}

// runReady executes every pending task whose dependencies are satisfied.
func (w *Worker) runReady() {
	w.mu.Lock()
	if !w.ready() {
		w.mu.Unlock()
		return
	}
	tasks := w.pending
	w.pending = nil
	sharedCopy := make(map[string][]byte, len(w.shared))
	for k, v := range w.shared {
		sharedCopy[k] = v
	}
	w.mu.Unlock()

	for _, pt := range tasks {
		taskName := strings.TrimPrefix(pt.d.Name, TaskPrefix)
		w.mu.Lock()
		if w.done[taskName] {
			w.mu.Unlock()
			continue
		}
		w.done[taskName] = true
		w.mu.Unlock()
		if err := w.execute(taskName, pt.d, sharedCopy); err != nil {
			w.mu.Lock()
			w.errs = append(w.errs, err)
			w.mu.Unlock()
		}
	}
}

// execute runs one task and schedules its result back to the collector.
func (w *Worker) execute(taskName string, d data.Data, shared map[string][]byte) error {
	input, err := w.node.Backend().Get(string(d.UID))
	if err != nil {
		return fmt.Errorf("mw: task %s input: %w", taskName, err)
	}
	output, err := w.fn(taskName, input, shared)
	if err != nil {
		return fmt.Errorf("mw: task %s: %w", taskName, err)
	}
	collector, err := w.node.BitDew.SearchDataFirst("Collector")
	if err != nil {
		return fmt.Errorf("mw: task %s: no collector: %w", taskName, err)
	}
	rd, err := w.node.BitDew.CreateData(ResultPrefix + taskName)
	if err != nil {
		return err
	}
	if err := w.node.BitDew.Put(rd, output); err != nil {
		return err
	}
	return w.node.ActiveData.Schedule(*rd, attr.Attribute{
		Name: attrResult, Replica: 1, Protocol: "http",
		Affinity:    string(collector.UID),
		LifetimeRel: string(collector.UID),
	})
}
