package core

import (
	"strings"
	"testing"
	"time"

	"bitdew/internal/attr"
	"bitdew/internal/catalog"
	"bitdew/internal/data"
	"bitdew/internal/db"
	"bitdew/internal/repository"
	"bitdew/internal/rpc"
	"bitdew/internal/scheduler"
	"bitdew/internal/transfer"
)

// newWaitTestNode builds a node against a minimal in-process service plane
// (white-box: the test needs the unexported waitTimeout and inflight).
func newWaitTestNode(t *testing.T) *Node {
	t.Helper()
	mux := rpc.NewMux()
	catalog.NewService(db.NewRowStore()).Mount(mux)
	repository.NewService(repository.NewMemBackend()).Mount(mux)
	transfer.NewService().Mount(mux)
	scheduler.New().Mount(mux)
	n, err := NewNode(NodeConfig{Host: "wait-test", Comms: ConnectLocal(mux)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	return n
}

// TestSyncWaitBounded is the regression test for the rpcdeadline finding on
// SyncWait: its in-flight poll loop used to spin forever, so one wedged
// transfer hung every caller. It must now fail within the wait timeout,
// naming the stuck work.
func TestSyncWaitBounded(t *testing.T) {
	n := newWaitTestNode(t)
	n.waitTimeout = 30 * time.Millisecond

	// A transfer that never finishes: the inflight entry is planted and
	// nothing will ever clear it.
	n.mu.Lock()
	n.inflight["wedged-datum"] = true
	n.mu.Unlock()

	start := time.Now()
	err := n.SyncWait(1)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("SyncWait returned nil with a transfer permanently in flight")
	}
	if !strings.Contains(err.Error(), "in flight") {
		t.Fatalf("SyncWait error = %v, want it to name the in-flight transfer", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("SyncWait took %v to give up, want ~30ms", elapsed)
	}

	// Once the transfer clears, the same node syncs fine.
	n.mu.Lock()
	delete(n.inflight, "wedged-datum")
	n.mu.Unlock()
	if err := n.SyncWait(1); err != nil {
		t.Fatalf("SyncWait after the transfer cleared: %v", err)
	}
}

// blockedTransfer is a download that announces itself, then lands its
// content only when the test lets it.
type blockedTransfer struct {
	uid      string
	content  []byte
	backend  repository.Backend
	entered  chan struct{}
	released chan struct{}
}

func (b *blockedTransfer) Connect() error    { return nil }
func (b *blockedTransfer) Disconnect() error { return nil }
func (b *blockedTransfer) Send() error       { return nil }
func (b *blockedTransfer) Probe() (transfer.Progress, error) {
	return transfer.Progress{Total: int64(len(b.content))}, nil
}
func (b *blockedTransfer) Receive() error {
	b.entered <- struct{}{}
	<-b.released
	return b.backend.Put(b.uid, b.content)
}

// TestSyncWaitReturnsWithLastTransfer: SyncWait blocks on the round's
// fetches themselves — it is still waiting while a transfer runs, and is
// back, with the datum's copy handler already returned, as soon as the
// transfer lands. It used to poll the in-flight table every 5 ms.
func TestSyncWaitReturnsWithLastTransfer(t *testing.T) {
	n := newWaitTestNode(t)
	d := data.NewFromBytes("slow", []byte("content that takes its time"))
	bt := &blockedTransfer{
		uid: string(d.UID), content: []byte("content that takes its time"), backend: n.Backend(),
		entered: make(chan struct{}, 1), released: make(chan struct{}),
	}
	transfer.RegisterProtocol("blocked", func(data.Data, data.Locator, repository.Backend) (transfer.OOBTransfer, error) {
		return bt, nil
	})
	c := n.set.For(d.UID)
	if err := c.DC.Register(*d); err != nil {
		t.Fatal(err)
	}
	if err := c.DC.AddLocator(data.Locator{DataUID: d.UID, Protocol: "blocked", Host: "test", Ref: string(d.UID)}); err != nil {
		t.Fatal(err)
	}
	if err := n.ActiveData.Schedule(*d, attr.Attribute{Name: "slow", Replica: 1, Protocol: "blocked"}); err != nil {
		t.Fatal(err)
	}
	copied := make(chan struct{})
	n.ActiveData.AddCallback(EventHandler{OnDataCopy: func(Event) { close(copied) }})

	done := make(chan error, 1)
	go func() { done <- n.SyncWait(1) }()
	<-bt.entered
	select {
	case err := <-done:
		t.Fatalf("SyncWait returned (%v) while its transfer was still running", err)
	default:
	}
	close(bt.released)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SyncWait still waiting 10s after its only transfer landed")
	}
	select {
	case <-copied:
	default:
		t.Error("SyncWait returned before the datum's copy handler had")
	}
	if !n.Holds(d.UID) {
		t.Error("the datum did not land")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.idle != nil || len(n.inflight) != 0 {
		t.Errorf("after the round: idle=%v, %d in flight", n.idle, len(n.inflight))
	}
}

// instantTransfer lands its content the moment it is asked to.
type instantTransfer struct {
	blockedTransfer
}

func (i *instantTransfer) Receive() error { return i.backend.Put(i.uid, i.content) }

// TestFetchBatchIsOneReportFrame: a FetchAll batch is booked with the DT
// reporter whole before any of its transfers starts, so it costs one report
// frame however early its first transfer ends. The barrier is the verdict
// hook of a datum nobody can locate, which fetchAll calls on its own
// goroutine in the middle of the batch: it returns only once the datum before
// it has landed. A fetchAll that starts transfers as it goes has by then
// reported that one alone, and reports the one after it in a second frame.
func TestFetchBatchIsOneReportFrame(t *testing.T) {
	n := newWaitTestNode(t)
	transfer.RegisterProtocol("instant", func(d data.Data, _ data.Locator, b repository.Backend) (transfer.OOBTransfer, error) {
		return &instantTransfer{blockedTransfer{uid: string(d.UID), content: []byte(d.Name), backend: b}}, nil
	})
	batch := []data.Data{*data.NewFromBytes("early", []byte("early")), *data.New("nowhere"), *data.NewFromBytes("late", []byte("late"))}
	for _, d := range []data.Data{batch[0], batch[2]} {
		c := n.set.For(d.UID)
		if err := c.DC.Register(d); err != nil {
			t.Fatal(err)
		}
		if err := c.DC.AddLocator(data.Locator{DataUID: d.UID, Protocol: "instant", Host: "test", Ref: string(d.UID)}); err != nil {
			t.Fatal(err)
		}
	}

	base := n.set.RoundTrips()
	verdicts := make([]error, len(batch))
	_ = n.BitDew.fetchAll(batch, "instant", func(i int, err error) {
		verdicts[i] = err
		if i == 1 {
			if err := n.Transfers.WaitFor(batch[0]); err != nil {
				t.Error(err)
			}
		}
	})
	if verdicts[0] != nil || verdicts[1] == nil || verdicts[2] != nil {
		t.Fatalf("verdicts %v, want only the unlocatable datum to fail", verdicts)
	}
	if got := n.set.RoundTrips() - base; got != 2 {
		t.Fatalf("the batch cost %d frames, want 2: one lookup, one DT report", got)
	}
}
