package transfer

import (
	"errors"
	"sync"
	"testing"
	"time"

	"bitdew/internal/data"
	"bitdew/internal/repository"
	"bitdew/internal/rpc"
)

// script is an OOBTransfer the test drives: every Send or Receive announces
// itself on entered, then blocks until the test feeds its outcome into
// outcomes; Probe answers with whatever byte count the test last set.
type script struct {
	content  []byte
	uid      data.UID
	backend  repository.Backend
	entered  chan struct{}
	outcomes chan error

	mu    sync.Mutex
	bytes int64
}

// newScript registers s as the "scripted" protocol and returns a datum and
// locator that run through it.
func newScript(t *testing.T, backend repository.Backend) (*script, data.Data, data.Locator) {
	t.Helper()
	s := &script{
		content: randBytes(1000, 40), backend: backend,
		// Room for every run of the largest test, so a test may queue the
		// outcomes before it starts the transfers.
		entered: make(chan struct{}, 64), outcomes: make(chan error, 64),
	}
	RegisterProtocol("scripted", func(data.Data, data.Locator, repository.Backend) (OOBTransfer, error) {
		return s, nil
	})
	d := *data.NewFromBytes("scripted", s.content)
	s.uid = d.UID
	return s, d, data.Locator{DataUID: d.UID, Protocol: "scripted"}
}

func (s *script) Connect() error    { return nil }
func (s *script) Disconnect() error { return nil }
func (s *script) Send() error       { return s.run() }
func (s *script) Receive() error    { return s.run() }

func (s *script) run() error {
	s.entered <- struct{}{}
	err := <-s.outcomes
	if err == nil {
		err = s.backend.Put(string(s.uid), s.content)
		s.setBytes(int64(len(s.content)))
	}
	return err
}

func (s *script) Probe() (Progress, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Progress{Bytes: s.bytes, Total: int64(len(s.content))}, nil
}

func (s *script) setBytes(n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bytes = n
}

// tapClient forwards to a DT service and announces, after each request frame
// it carried, how many calls rode it.
type tapClient struct {
	rpc.Client
	frames chan int
}

func (c *tapClient) Call(service, method string, args, reply any) error {
	err := c.Client.Call(service, method, args, reply)
	c.frames <- 1
	return err
}

func (c *tapClient) CallBatch(calls []*rpc.Call) error {
	err := rpc.CallBatch(c.Client, calls)
	c.frames <- len(calls)
	return err
}

// dtRig is a DT service behind a tapped client.
type dtRig struct {
	dt     *Service
	client *Client
	frames chan int
}

func newDTRig() *dtRig {
	r := &dtRig{dt: NewService(), frames: make(chan int, 1024)} // never blocks the engine
	mux := rpc.NewMux()
	r.dt.Mount(mux)
	r.client = NewClient(&tapClient{Client: rpc.NewLocalClient(mux, 0), frames: r.frames})
	return r
}

// frame waits for the next request frame and returns its call count.
func (r *dtRig) frame(t *testing.T) int {
	t.Helper()
	select {
	case n := <-r.frames:
		return n
	case <-time.After(10 * time.Second):
		t.Fatal("no frame reached the DT service")
		return 0
	}
}

// only returns the service's single terminal record.
func (r *dtRig) only(t *testing.T) Record {
	t.Helper()
	r.dt.mu.Lock()
	defer r.dt.mu.Unlock()
	if len(r.dt.ended) != 1 || len(r.dt.live) != 0 {
		t.Fatalf("registry holds %d terminal and %d live records, want 1 and 0", len(r.dt.ended), len(r.dt.live))
	}
	for _, rec := range r.dt.ended {
		return *rec
	}
	panic("unreachable")
}

// TestMonitorLongTransfer: a transfer that outlives the monitoring period
// shows up at the DT on the heartbeat, in flight and with the bytes the
// receiver counts at that moment, and ends complete.
func TestMonitorLongTransfer(t *testing.T) {
	rig := newDTRig()
	local := repository.NewMemBackend()
	s, d, loc := newScript(t, local)
	e := NewEngine(local, rig.client, "w", 1)
	e.MonitorPeriod = 5 * time.Millisecond

	h := e.Download(d, loc)
	<-s.entered
	for _, want := range []int64{100, 400} {
		s.setBytes(want)
		// The heartbeat after the update carries it; one already on its way
		// may still carry the previous count.
		for {
			rig.frame(t)
			act := rig.dt.Active()
			if len(act) != 1 || act[0].State != StateActive || act[0].DataUID != d.UID || act[0].Host != "w" || act[0].Attempts != 1 {
				t.Fatalf("Active during the transfer = %+v", act)
			}
			if act[0].Bytes == want {
				break
			}
		}
		if got := h.Probe().Bytes; got != want {
			t.Errorf("handle probes %d bytes, receiver counts %d", got, want)
		}
	}
	s.outcomes <- nil
	if err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	// The terminal report left before Wait returned.
	if rec := rig.only(t); rec.State != StateComplete || rec.Bytes != d.Size {
		t.Errorf("terminal record = %+v", rec)
	}
}

// TestReportShortTransferOneRequest: a transfer that ends inside one
// monitoring period talks to the DT exactly once (it used to open, then
// report), and a resumed one says so in that same message (it used to call
// Retry).
func TestReportShortTransferOneRequest(t *testing.T) {
	for _, tc := range []struct {
		name     string
		outcomes []error
		attempts int
	}{
		{"first attempt", []error{nil}, 1},
		{"resumed", []error{errors.New("link dropped"), nil}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rig := newDTRig()
			local := repository.NewMemBackend()
			s, d, loc := newScript(t, local)
			for _, o := range tc.outcomes {
				s.outcomes <- o
			}
			e := NewEngine(local, rig.client, "w", 1)
			if err := e.Download(d, loc).Wait(); err != nil {
				t.Fatal(err)
			}
			if _, requests := rig.dt.Stats(); requests != 1 || len(rig.frames) != 1 {
				t.Errorf("%d requests in %d frames at the DT, want 1 in 1", requests, len(rig.frames))
			}
			if rec := rig.only(t); rec.State != StateComplete || rec.Attempts != tc.attempts || rec.Protocol != "scripted" || rec.Total != d.Size {
				t.Errorf("terminal record = %+v, want complete after %d attempt(s)", rec, tc.attempts)
			}
		})
	}
}

// TestReportBurstOneFrame: transfers in flight together to one DT service
// report in one frame, sent by the last to end before its waiters wake — the
// frame count follows from the work, not from the interleaving.
func TestReportBurstOneFrame(t *testing.T) {
	rig := newDTRig()
	local := repository.NewMemBackend()
	s, d, loc := newScript(t, local)
	e := NewEngine(local, rig.client, "w", 4)

	const n = 20
	handles := make([]*Handle, n)
	for i := range handles {
		// Distinct data through the one script.
		di := d
		di.UID = data.UID(string(d.UID) + string(rune('a'+i)))
		handles[i] = e.Upload(di, loc)
	}
	// All started before any may end: in flight from start, not from when a
	// transfer wins one of the 4 slots.
	for range handles {
		s.outcomes <- nil
	}
	if err := Barrier(handles...); err != nil {
		t.Fatal(err)
	}
	if len(rig.frames) != 1 {
		t.Fatalf("%d frames for a burst of %d, want 1", len(rig.frames), n)
	}
	if got := rig.frame(t); got != n {
		t.Errorf("the frame carried %d reports, want %d", got, n)
	}
}

// TestReportUploadFailure: an upload started for a caller's commit frame
// (UploadAll) leaves its terminal report — failed, here — to that caller,
// and to the heartbeat when the caller never takes it.
func TestReportUploadFailure(t *testing.T) {
	rig := newDTRig()
	local := repository.NewMemBackend()
	s, d, loc := newScript(t, local)
	e := NewEngine(local, rig.client, "w", 1)
	e.MaxAttempts = 1

	s.outcomes <- errors.New("disk full")
	h := e.UploadAll([]data.Data{d}, []data.Locator{loc})[0]
	if err := h.Wait(); err == nil {
		t.Fatal("failed upload reported success")
	}
	if len(rig.frames) != 0 {
		t.Fatalf("a held upload sent %d frame(s) of its own", len(rig.frames))
	}
	calls := e.TakeReports(rig.client)
	if len(calls) != 1 {
		t.Fatalf("TakeReports = %d calls, want 1", len(calls))
	}
	if err := rig.client.c.(*tapClient).CallBatch(calls); err != nil || calls[0].Err != nil {
		t.Fatal(err, calls[0].Err)
	}
	if rec := rig.only(t); rec.State != StateFailed || rec.Error == "" || rec.DataUID != d.UID {
		t.Errorf("terminal record = %+v, want failed with its error", rec)
	}
	if again := e.TakeReports(rig.client); len(again) != 0 {
		t.Errorf("the report was handed out twice: %d calls", len(again))
	}

	// Never taken: out on the next heartbeat.
	<-rig.frames
	e.MonitorPeriod = 5 * time.Millisecond
	s.outcomes <- errors.New("disk full")
	if err := e.UploadAll([]data.Data{d}, []data.Locator{loc})[0].Wait(); err == nil {
		t.Fatal("failed upload reported success")
	}
	if got := rig.frame(t); got != 1 {
		t.Errorf("the heartbeat carried %d reports, want 1", got)
	}
}

// TestReportUnreachableDT: the DT is monitoring only. With the service gone,
// transfers run exactly as they do unreported.
func TestReportUnreachableDT(t *testing.T) {
	dead := rpc.NewLocalClient(rpc.NewMux(), 0)
	dead.Close()
	local := repository.NewMemBackend()
	s, d, loc := newScript(t, local)
	e := NewEngine(local, NewClient(dead), "w", 2)
	s.outcomes <- nil
	s.outcomes <- nil
	if err := Barrier(e.Download(d, loc), e.Upload(d, loc)); err != nil {
		t.Fatalf("transfers with the DT unreachable: %v", err)
	}
}
