package mw

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"bitdew/internal/core"
	"bitdew/internal/runtime"
	"bitdew/internal/workload"
)

func newNode(t *testing.T, c *runtime.Container, host string) *core.Node {
	t.Helper()
	n, err := core.NewNode(core.NodeConfig{
		Host:  host,
		Comms: core.ConnectLocal(c.Mux),
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func newContainer(t *testing.T) *runtime.Container {
	t.Helper()
	c, err := runtime.NewContainer(runtime.ContainerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// drive alternates worker and master synchronizations until done() or the
// round budget runs out.
func drive(t *testing.T, master *core.Node, workers []*core.Node, rounds int, done func() bool) {
	t.Helper()
	for i := 0; i < rounds; i++ {
		for _, w := range workers {
			if err := w.SyncWait(1); err != nil {
				t.Fatal(err)
			}
		}
		if err := master.SyncWait(1); err != nil {
			t.Fatal(err)
		}
		if done != nil && done() {
			return
		}
	}
}

func TestMasterWorkerEcho(t *testing.T) {
	c := newContainer(t)
	mnode := newNode(t, c, "master")
	master, err := NewMaster(mnode)
	if err != nil {
		t.Fatal(err)
	}
	var wnodes []*core.Node
	for i := 0; i < 3; i++ {
		wn := newNode(t, c, fmt.Sprintf("w%d", i))
		wnodes = append(wnodes, wn)
		NewWorker(wn, nil, func(task string, input []byte, shared map[string][]byte) ([]byte, error) {
			return []byte(strings.ToUpper(string(input))), nil
		})
	}
	const tasks = 6
	for i := 0; i < tasks; i++ {
		if _, err := master.Submit(fmt.Sprintf("t%d", i), []byte(fmt.Sprintf("payload-%d", i)), 1); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]string{}
	drive(t, mnode, wnodes, 20, func() bool {
		for {
			select {
			case r := <-master.Results():
				got[r.Task] = string(r.Content)
			default:
				return len(got) == tasks
			}
		}
	})
	if len(got) != tasks {
		t.Fatalf("got %d/%d results: %v", len(got), tasks, got)
	}
	for i := 0; i < tasks; i++ {
		want := fmt.Sprintf("PAYLOAD-%d", i)
		if got[fmt.Sprintf("t%d", i)] != want {
			t.Errorf("task t%d = %q, want %q", i, got[fmt.Sprintf("t%d", i)], want)
		}
	}
}

func TestSharedDependenciesGateExecution(t *testing.T) {
	c := newContainer(t)
	mnode := newNode(t, c, "master")
	master, err := NewMaster(mnode)
	if err != nil {
		t.Fatal(err)
	}
	wn := newNode(t, c, "w0")
	executed := make(chan string, 8)
	NewWorker(wn, []string{"Genebase"}, func(task string, input []byte, shared map[string][]byte) ([]byte, error) {
		if len(shared["Genebase"]) == 0 {
			t.Error("task ran without its shared dependency")
		}
		executed <- task
		return []byte("ok"), nil
	})

	if _, err := master.Submit("needy", []byte("in"), 1); err != nil {
		t.Fatal(err)
	}
	// One sync: the task arrives, but the genebase is not shared yet, so
	// nothing must execute.
	if err := wn.SyncWait(1); err != nil {
		t.Fatal(err)
	}
	select {
	case task := <-executed:
		t.Fatalf("task %s executed before its dependency", task)
	default:
	}
	// Share the dependency; the task runs at the next copy event.
	if _, err := master.Share("Genebase", []byte("ACGTACGT"), "attr Genebase = { replica = -1, oob = http }"); err != nil {
		t.Fatal(err)
	}
	drive(t, mnode, []*core.Node{wn}, 10, func() bool { return len(executed) > 0 })
	select {
	case task := <-executed:
		if task != "needy" {
			t.Errorf("executed %q", task)
		}
	default:
		t.Fatal("task never executed after dependency arrived")
	}
}

func TestReplicatedTaskDeliversOnce(t *testing.T) {
	c := newContainer(t)
	mnode := newNode(t, c, "master")
	master, err := NewMaster(mnode)
	if err != nil {
		t.Fatal(err)
	}
	var wnodes []*core.Node
	for i := 0; i < 3; i++ {
		wn := newNode(t, c, fmt.Sprintf("w%d", i))
		wnodes = append(wnodes, wn)
		NewWorker(wn, nil, func(task string, input []byte, shared map[string][]byte) ([]byte, error) {
			return input, nil
		})
	}
	if _, err := master.Submit("dup", []byte("x"), 2); err != nil { // 2 replicas
		t.Fatal(err)
	}
	count := 0
	drive(t, mnode, wnodes, 12, func() bool {
		for {
			select {
			case <-master.Results():
				count++
			default:
				return false // run all rounds to catch duplicates
			}
		}
	})
	if count != 1 {
		t.Fatalf("replicated task delivered %d results, want 1 (dedup)", count)
	}
}

func TestFaultTolerantTaskReassigned(t *testing.T) {
	c := newContainer(t)
	c.DS.Timeout = 150 * time.Millisecond
	mnode := newNode(t, c, "master")
	master, err := NewMaster(mnode)
	if err != nil {
		t.Fatal(err)
	}
	// Worker 1 receives the task but "crashes" before executing: we
	// simulate by syncing it once with a no-op function that never runs
	// because the node stops syncing afterwards... instead, make w1 a node
	// with NO worker attached: it caches the task datum but never answers.
	w1 := newNode(t, c, "w1")
	if _, err := master.Submit("orphan", []byte("x"), 1); err != nil {
		t.Fatal(err)
	}
	if err := w1.SyncWait(2); err != nil {
		t.Fatal(err)
	}
	// w1 now owns the task and goes silent. After the timeout, w2 (a real
	// worker) must receive it and produce the result.
	time.Sleep(250 * time.Millisecond)
	w2 := newNode(t, c, "w2")
	NewWorker(w2, nil, func(task string, input []byte, shared map[string][]byte) ([]byte, error) {
		return []byte("recovered"), nil
	})
	var got []Result
	// The result rides an asynchronous upload + schedule pipeline on w2;
	// pause between empty rounds so sleep-free heartbeats cannot outrun it
	// (under -race the pipeline can lag the fast rounds by tens of ms).
	drive(t, mnode, []*core.Node{w2}, 40, func() bool {
		select {
		case r := <-master.Results():
			got = append(got, r)
		default:
			time.Sleep(5 * time.Millisecond)
		}
		return len(got) > 0
	})
	if len(got) != 1 || string(got[0].Content) != "recovered" {
		t.Fatalf("results = %+v", got)
	}
}

func TestShutdownCleansWorkers(t *testing.T) {
	c := newContainer(t)
	mnode := newNode(t, c, "master")
	master, err := NewMaster(mnode)
	if err != nil {
		t.Fatal(err)
	}
	wn := newNode(t, c, "w0")
	NewWorker(wn, nil, func(task string, input []byte, shared map[string][]byte) ([]byte, error) {
		return input, nil
	})
	shared, err := master.Share("Genebase", []byte("ACGT"), "attr Genebase = { replica = -1, oob = http }")
	if err != nil {
		t.Fatal(err)
	}
	if err := wn.SyncWait(2); err != nil {
		t.Fatal(err)
	}
	if !wn.Holds(shared.UID) {
		t.Fatal("worker never received shared datum")
	}
	if err := master.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := wn.SyncWait(1); err != nil {
		t.Fatal(err)
	}
	if wn.Holds(shared.UID) {
		t.Error("shared datum survived master shutdown (relative lifetime broken)")
	}
}

func TestMiniBlastPipeline(t *testing.T) {
	// End-to-end: the paper's §5 application on the real stack with the
	// synthetic workload package.
	c := newContainer(t)
	mnode := newNode(t, c, "master")
	master, err := NewMaster(mnode)
	if err != nil {
		t.Fatal(err)
	}
	base := workload.Genebase(60_000, 1)
	queries := workload.SampleQueries(base, 4, 150, 0.01, 2)

	var wnodes []*core.Node
	for i := 0; i < 2; i++ {
		wn := newNode(t, c, fmt.Sprintf("w%d", i))
		wnodes = append(wnodes, wn)
		NewWorker(wn, []string{"Genebase"}, func(task string, input []byte, shared map[string][]byte) ([]byte, error) {
			hits := workload.Search(shared["Genebase"], input, 100)
			return []byte(fmt.Sprintf("%d", len(hits))), nil
		})
	}
	if _, err := master.Share("Genebase", base, "attr Genebase = { replica = -1, oob = http }"); err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		if _, err := master.Submit(q.Name, q.Seq, 1); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]string{}
	drive(t, mnode, wnodes, 25, func() bool {
		for {
			select {
			case r := <-master.Results():
				got[r.Task] = string(r.Content)
			default:
				return len(got) == len(queries)
			}
		}
	})
	if len(got) != len(queries) {
		t.Fatalf("got %d/%d results", len(got), len(queries))
	}
	for task, hits := range got {
		if hits == "0" {
			t.Errorf("task %s found no hits (planted match missed)", task)
		}
	}
	for _, wn := range wnodes {
		_ = wn
	}
}

func TestCollectHelper(t *testing.T) {
	c := newContainer(t)
	mnode := newNode(t, c, "master")
	master, err := NewMaster(mnode)
	if err != nil {
		t.Fatal(err)
	}
	wn := newNode(t, c, "w0")
	w := NewWorker(wn, nil, func(task string, input []byte, shared map[string][]byte) ([]byte, error) {
		return input, nil
	})
	master.Submit("a", []byte("1"), 1)
	master.Submit("b", []byte("2"), 1)
	go func() {
		for i := 0; i < 20; i++ {
			wn.SyncWait(1)
			time.Sleep(10 * time.Millisecond)
		}
	}()
	results, err := master.Collect(2, 40)
	if err != nil {
		t.Fatalf("Collect: %v (worker errs: %v)", err, w.Errs())
	}
	if len(results) != 2 {
		t.Fatalf("results = %+v", results)
	}
	// Collect returning fewer than wanted errors out.
	if _, err := master.Collect(1, 2); err == nil {
		t.Error("Collect with no pending tasks succeeded")
	}
}
