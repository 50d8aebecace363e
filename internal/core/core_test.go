package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"

	"bitdew/internal/attr"
	"bitdew/internal/core"
	"bitdew/internal/data"
	"bitdew/internal/runtime"
	"bitdew/internal/workload"
)

func randBytes(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// harness is one container plus helpers to spawn nodes against it.
type harness struct {
	t   *testing.T
	c   *runtime.Container
	tcp bool
}

func newHarness(t *testing.T, tcp bool) *harness {
	t.Helper()
	addr := ""
	if tcp {
		addr = "127.0.0.1:0"
	}
	c, err := runtime.NewContainer(runtime.ContainerConfig{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &harness{t: t, c: c, tcp: tcp}
}

func (h *harness) comms() *core.Comms {
	h.t.Helper()
	if h.tcp {
		comms, err := core.Connect(h.c.Addr())
		if err != nil {
			h.t.Fatal(err)
		}
		h.t.Cleanup(func() { comms.Close() })
		return comms
	}
	return core.ConnectLocal(h.c.Mux)
}

func (h *harness) node(host string) *core.Node {
	h.t.Helper()
	n, err := core.NewNode(core.NodeConfig{Host: host, Comms: h.comms(), SyncPeriod: 50 * time.Millisecond})
	if err != nil {
		h.t.Fatal(err)
	}
	return n
}

func TestNodeConfigValidation(t *testing.T) {
	if _, err := core.NewNode(core.NodeConfig{}); err == nil {
		t.Error("node without host accepted")
	}
	if _, err := core.NewNode(core.NodeConfig{Host: "h"}); err == nil {
		t.Error("node without comms accepted")
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		t.Run(fmt.Sprintf("tcp=%v", tcp), func(t *testing.T) {
			h := newHarness(t, tcp)
			master := h.node("master")
			content := randBytes(120_000, 1)
			d, err := master.BitDew.CreateData("payload")
			if err != nil {
				t.Fatal(err)
			}
			if err := master.BitDew.Put(d, content); err != nil {
				t.Fatal(err)
			}
			// Another node fetches by search.
			worker := h.node("worker")
			found, err := worker.BitDew.SearchDataFirst("payload")
			if err != nil {
				t.Fatal(err)
			}
			if found.UID != d.UID || found.Checksum != d.Checksum {
				t.Fatalf("search = %+v, want %+v", found, d)
			}
			got, err := worker.BitDew.GetBytes(found)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, content) {
				t.Fatal("content mismatch")
			}
			if !worker.BitDew.Local(found) {
				t.Error("Local = false after Get")
			}
		})
	}
}

func TestScheduleBroadcast(t *testing.T) {
	h := newHarness(t, false)
	master := h.node("master")
	content := randBytes(60_000, 2)
	d, err := master.BitDew.CreateData("update")
	if err != nil {
		t.Fatal(err)
	}
	if err := master.BitDew.Put(d, content); err != nil {
		t.Fatal(err)
	}
	a, err := master.ActiveData.CreateAttribute("attr update = { replica = -1, oob = http }")
	if err != nil {
		t.Fatal(err)
	}
	if err := master.ActiveData.Schedule(*d, a); err != nil {
		t.Fatal(err)
	}
	// Every worker that syncs receives the datum.
	for i := 0; i < 4; i++ {
		w := h.node(fmt.Sprintf("w%d", i))
		if err := w.SyncWait(2); err != nil {
			t.Fatal(err)
		}
		if !w.Holds(d.UID) {
			t.Fatalf("worker %d missing broadcast datum", i)
		}
		got, err := w.Backend().Get(string(d.UID))
		if err != nil || !bytes.Equal(got, content) {
			t.Fatalf("worker %d content: %d bytes, %v", i, len(got), err)
		}
	}
}

func TestScheduleOverBitTorrent(t *testing.T) {
	h := newHarness(t, false)
	master := h.node("master")
	content := randBytes(600_000, 3)
	d, err := master.BitDew.CreateData("big")
	if err != nil {
		t.Fatal(err)
	}
	if err := master.BitDew.Put(d, content); err != nil {
		t.Fatal(err)
	}
	a, err := master.ActiveData.CreateAttribute("attr big = { replica = -1, oob = bittorrent }")
	if err != nil {
		t.Fatal(err)
	}
	if err := master.ActiveData.Schedule(*d, a); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 3)
	workers := make([]*core.Node, 3)
	for i := range workers {
		workers[i] = h.node(fmt.Sprintf("bt-w%d", i))
	}
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w *core.Node) {
			defer wg.Done()
			errs[i] = w.SyncWait(2)
		}(i, w)
	}
	wg.Wait()
	for i, w := range workers {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		got, err := w.Backend().Get(string(d.UID))
		if err != nil || !bytes.Equal(got, content) {
			t.Fatalf("worker %d swarm content: %d bytes, %v", i, len(got), err)
		}
	}
}

func TestCopyAndDeleteEvents(t *testing.T) {
	h := newHarness(t, false)
	master := h.node("master")
	content := randBytes(10_000, 4)
	d, _ := master.BitDew.CreateData("evented")
	if err := master.BitDew.Put(d, content); err != nil {
		t.Fatal(err)
	}
	a := attr.Attribute{Name: "evented", Replica: 1, Protocol: "http"}
	if err := master.ActiveData.Schedule(*d, a); err != nil {
		t.Fatal(err)
	}

	worker := h.node("worker")
	var mu sync.Mutex
	var copies, deletes []string
	worker.ActiveData.AddCallback(core.EventHandler{
		OnDataCopy: func(e core.Event) {
			mu.Lock()
			copies = append(copies, e.Attr.Name)
			mu.Unlock()
		},
		OnDataDelete: func(e core.Event) {
			mu.Lock()
			deletes = append(deletes, e.Attr.Name)
			mu.Unlock()
		},
	})
	if err := worker.SyncWait(2); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if len(copies) != 1 || copies[0] != "evented" {
		t.Fatalf("copies = %v", copies)
	}
	mu.Unlock()

	// Delete the datum: next sync drops it and fires the delete event.
	if err := master.BitDew.DeleteData(*d); err != nil {
		t.Fatal(err)
	}
	if err := worker.SyncWait(1); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(deletes) != 1 || deletes[0] != "evented" {
		t.Fatalf("deletes = %v", deletes)
	}
	if worker.Holds(d.UID) {
		t.Error("worker still holds deleted datum")
	}
}

// TestUpdaterScenario replays the paper's Listing 1/2 example end to end:
// a master broadcasts an update file; each updatee installs it and sends
// back a small "host" datum with affinity to a Collector pinned on the
// master; the master collects the updated-host list.
func TestUpdaterScenario(t *testing.T) {
	h := newHarness(t, false)
	master := h.node("master")

	// Master: put the update file and broadcast it.
	update := randBytes(80_000, 5)
	updateData, _ := master.BitDew.CreateData("update")
	if err := master.BitDew.Put(updateData, update); err != nil {
		t.Fatal(err)
	}
	updateAttr, err := master.ActiveData.CreateAttribute("attr update = { replica = -1, oob = http }")
	if err != nil {
		t.Fatal(err)
	}
	master.ActiveData.Schedule(*updateData, updateAttr)

	// Master: pin an empty Collector and install the handler recording
	// updated hosts.
	collector, _ := master.BitDew.CreateData("collector")
	if err := master.ActiveData.Pin(*collector, attr.Attribute{Name: "collector"}); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	updated := map[string]bool{}
	master.ActiveData.AddCallback(core.EventHandler{
		OnDataCopy: func(e core.Event) {
			if e.Attr.Name == "host" {
				mu.Lock()
				updated[e.Data.Name] = true
				mu.Unlock()
			}
		},
	})

	// Updatees: install handler reacting to "update" copies.
	const updatees = 3
	var nodes []*core.Node
	for i := 0; i < updatees; i++ {
		w := h.node(fmt.Sprintf("updatee-%d", i))
		w.ActiveData.AddCallback(core.EventHandler{
			OnDataCopy: func(w *core.Node) func(core.Event) {
				return func(e core.Event) {
					if e.Attr.Name != "update" {
						return
					}
					// Send back the host name with affinity to the collector.
					col, err := w.BitDew.SearchDataFirst("collector")
					if err != nil {
						t.Errorf("%s: search collector: %v", w.Host, err)
						return
					}
					hostData, err := w.BitDew.CreateDataFromBytes(w.Host, []byte(w.Host))
					if err != nil {
						t.Errorf("%s: create host datum: %v", w.Host, err)
						return
					}
					if err := w.BitDew.Put(hostData, []byte(w.Host)); err != nil {
						t.Errorf("%s: put host datum: %v", w.Host, err)
						return
					}
					w.ActiveData.Schedule(*hostData, attr.Attribute{
						Name: "host", Replica: 1, Protocol: "http",
						Affinity: string(col.UID),
					})
				}
			}(w),
		})
		nodes = append(nodes, w)
	}

	// Drive: updatees pull the update, then the master pulls the host data.
	for _, w := range nodes {
		if err := w.SyncWait(2); err != nil {
			t.Fatal(err)
		}
	}
	if err := master.SyncWait(3); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(updated) != updatees {
		t.Fatalf("master collected %d updatees (%v), want %d", len(updated), updated, updatees)
	}
}

func TestFaultToleranceReplication(t *testing.T) {
	h := newHarness(t, false)
	master := h.node("master")
	content := randBytes(20_000, 6)
	d, _ := master.BitDew.CreateData("resilient")
	if err := master.BitDew.Put(d, content); err != nil {
		t.Fatal(err)
	}
	// replica = 2, fault tolerant; scheduler timeout shortened via service.
	h.c.DS.Timeout = 200 * time.Millisecond
	master.ActiveData.Schedule(*d, attr.Attribute{
		Name: "r", Replica: 2, FaultTolerant: true, Protocol: "http",
	})

	w1, w2, w3 := h.node("w1"), h.node("w2"), h.node("w3")
	w1.SyncWait(2)
	w2.SyncWait(2)
	if !w1.Holds(d.UID) || !w2.Holds(d.UID) {
		t.Fatal("initial replicas not placed")
	}
	// w3 syncs but the replica count is satisfied.
	w3.SyncWait(1)
	if w3.Holds(d.UID) {
		t.Fatal("over-replicated")
	}
	// w1 crashes (stops syncing). After the timeout, w3 must receive the
	// replica.
	time.Sleep(300 * time.Millisecond)
	w2.SyncWait(1) // keeps w2 alive
	w3.SyncWait(2)
	if !w3.Holds(d.UID) {
		t.Fatal("lost replica not rescheduled to w3")
	}
}

func TestRelativeLifetimeCleanup(t *testing.T) {
	h := newHarness(t, false)
	master := h.node("master")
	collector, _ := master.BitDew.CreateData("Collector")
	master.ActiveData.Pin(*collector, attr.Attribute{Name: "Collector"})

	content := randBytes(5_000, 7)
	d, _ := master.BitDew.CreateData("genebase")
	master.BitDew.Put(d, content)
	master.ActiveData.Schedule(*d, attr.Attribute{
		Name: "Genebase", Replica: 1, Protocol: "http", LifetimeRel: "Collector",
	})

	w := h.node("w")
	w.SyncWait(2)
	if !w.Holds(d.UID) {
		t.Fatal("datum not placed")
	}
	// Deleting the collector obsoletes the genebase on the next sync.
	if err := master.ActiveData.Unschedule(*collector); err != nil {
		t.Fatal(err)
	}
	w.SyncWait(1)
	if w.Holds(d.UID) {
		t.Fatal("datum survived its relative lifetime")
	}
}

func TestNodeStartStopLoop(t *testing.T) {
	h := newHarness(t, false)
	master := h.node("master")
	content := randBytes(8_000, 8)
	d, _ := master.BitDew.CreateData("auto")
	master.BitDew.Put(d, content)
	master.ActiveData.Schedule(*d, attr.Attribute{Name: "a", Replica: 1, Protocol: "http"})

	w := h.node("w-auto")
	w.Start()
	defer w.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for !w.Holds(d.UID) {
		if time.Now().After(deadline) {
			t.Fatalf("pull loop did not fetch datum; lastErr=%v", w.LastErr())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestSearchDataFirstMissing(t *testing.T) {
	h := newHarness(t, false)
	n := h.node("n")
	if _, err := n.BitDew.SearchDataFirst("ghost"); err == nil {
		t.Error("SearchDataFirst for absent name succeeded")
	}
}

func TestDeleteDataClearsEverywhere(t *testing.T) {
	h := newHarness(t, false)
	n := h.node("n")
	d, _ := n.BitDew.CreateData("temp")
	if err := n.BitDew.Put(d, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := n.BitDew.DeleteData(*d); err != nil {
		t.Fatal(err)
	}
	if _, err := n.BitDew.SearchDataFirst("temp"); err == nil {
		t.Error("datum still searchable after delete")
	}
	ok, _ := n.BitDew.Local(*d), 0
	_ = ok
	if n.BitDew.Local(*d) {
		t.Error("content still local after delete")
	}
}

func TestPinnedDataSurvivesAsAffinityTarget(t *testing.T) {
	// A Result datum with affinity to a pinned Collector flows to the
	// master node (the paper's result-collection idiom).
	h := newHarness(t, false)
	master := h.node("master")
	collector, _ := master.BitDew.CreateData("Collector")
	master.ActiveData.Pin(*collector, attr.Attribute{Name: "Collector"})

	worker := h.node("worker")
	resultContent := randBytes(3_000, 9)
	result, _ := worker.BitDew.CreateDataFromBytes("result-1", resultContent)
	if err := worker.BitDew.Put(result, resultContent); err != nil {
		t.Fatal(err)
	}
	worker.ActiveData.Schedule(*result, attr.Attribute{
		Name: "Result", Replica: 1, Protocol: "http", Affinity: string(collector.UID),
	})
	if err := master.SyncWait(2); err != nil {
		t.Fatal(err)
	}
	if !master.Holds(result.UID) {
		t.Fatal("result did not flow to the collector's node")
	}
	got, err := master.Backend().Get(string(result.UID))
	if err != nil || !bytes.Equal(got, resultContent) {
		t.Fatalf("collected result mismatch: %d bytes, %v", len(got), err)
	}
}

func TestFileAPIs(t *testing.T) {
	h := newHarness(t, false)
	n := h.node("files")
	dir := t.TempDir()
	src := dir + "/input.bin"
	content := randBytes(30_000, 10)
	if err := os.WriteFile(src, content, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := n.BitDew.CreateDataFromFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "input.bin" || !d.Matches(content) {
		t.Fatalf("datum = %+v, want the file's name, size and MD5", d)
	}
	if err := n.BitDew.PutFile(d, src); err != nil {
		t.Fatal(err)
	}
	dst := dir + "/output.bin"
	if err := n.BitDew.GetFile(*d, dst); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(dst)
	if err != nil || !bytes.Equal(got, content) {
		t.Fatalf("round trip: %d bytes, %v", len(got), err)
	}
	if _, err := n.BitDew.CreateDataFromFile(dir + "/missing"); err == nil {
		t.Error("CreateDataFromFile of missing file succeeded")
	}
	if err := n.BitDew.PutFile(d, dir+"/missing"); err == nil {
		t.Error("PutFile of missing file succeeded")
	}
}

func TestTransferManagerSurface(t *testing.T) {
	h := newHarness(t, false)
	master := h.node("m")
	content := randBytes(50_000, 11)
	d, _ := master.BitDew.CreateData("tm")
	if err := master.BitDew.Put(d, content); err != nil {
		t.Fatal(err)
	}
	w := h.node("w")
	w.Transfers.SetMonitorPeriod(10 * time.Millisecond)
	w.Transfers.SetMaxAttempts(2)
	w.Transfers.SetMaxAttempts(0) // ignored: must stay positive
	found, err := w.BitDew.SearchDataFirst("tm")
	if err != nil {
		t.Fatal(err)
	}
	handle, err := w.BitDew.Get(found)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Transfers.Barrier(handle); err != nil {
		t.Fatal(err)
	}
	if p := w.Transfers.Probe(handle); !p.Done {
		t.Errorf("Probe after barrier = %+v", p)
	}
	if err := w.Transfers.WaitFor(found); err != nil {
		t.Fatal(err)
	}
}

func TestConnectWithLatency(t *testing.T) {
	h := newHarness(t, true)
	comms, err := core.ConnectWithLatency(h.c.Addr(), 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer comms.Close()
	start := time.Now()
	if _, err := comms.DC.All(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Errorf("latency not applied: %v", d)
	}
}

func TestAllData(t *testing.T) {
	h := newHarness(t, false)
	n := h.node("n")
	for i := 0; i < 3; i++ {
		d, _ := n.BitDew.CreateData(fmt.Sprintf("d%d", i))
		_ = d
	}
	all, err := n.BitDew.AllData()
	if err != nil || len(all) != 3 {
		t.Fatalf("AllData = %d, %v", len(all), err)
	}
}

// TestFileculeCoPlacement replays §2.2's high-energy-physics motivation:
// files accessed in groups ("filecules") must land on the same hosts.
// BitDew expresses this with affinity chains: every member points at the
// group head, so wherever the head is replicated the whole group follows.
func TestFileculeCoPlacement(t *testing.T) {
	h := newHarness(t, false)
	master := h.node("master")

	fc := workload.Filecules(1, 2_000, 8_000, 3)[0]
	if len(fc.Files) < 2 {
		fc.Files = append(fc.Files, workload.FileSpec{Name: fc.Name + "/extra", Size: 3000})
	}
	// Head: replicated to 2 hosts; members: affinity to the head.
	head, _ := master.BitDew.CreateData(fc.Files[0].Name)
	if err := master.BitDew.Put(head, randBytes(int(fc.Files[0].Size), 30)); err != nil {
		t.Fatal(err)
	}
	master.ActiveData.Schedule(*head, attr.Attribute{Name: "filecule-head", Replica: 2, Protocol: "http"})
	var members []*core.Node
	_ = members
	var memberUIDs []string
	for _, f := range fc.Files[1:] {
		d, _ := master.BitDew.CreateData(f.Name)
		if err := master.BitDew.Put(d, randBytes(int(f.Size), 31)); err != nil {
			t.Fatal(err)
		}
		master.ActiveData.Schedule(*d, attr.Attribute{
			Name: "filecule-member", Replica: 1, Protocol: "http",
			Affinity: string(head.UID),
		})
		memberUIDs = append(memberUIDs, string(d.UID))
	}

	w1, w2, w3 := h.node("f1"), h.node("f2"), h.node("f3")
	for _, w := range []*core.Node{w1, w2, w3} {
		if err := w.SyncWait(3); err != nil {
			t.Fatal(err)
		}
	}
	// Exactly the hosts holding the head hold every member.
	for _, w := range []*core.Node{w1, w2, w3} {
		hasHead := w.Holds(head.UID)
		for _, uid := range memberUIDs {
			if w.Holds(data.UID(uid)) != hasHead {
				t.Errorf("%s: member co-placement broken (head=%v)", w.Host, hasHead)
			}
		}
	}
	holders := 0
	for _, w := range []*core.Node{w1, w2, w3} {
		if w.Holds(head.UID) {
			holders++
		}
	}
	if holders != 2 {
		t.Errorf("head on %d hosts, want 2", holders)
	}
}
