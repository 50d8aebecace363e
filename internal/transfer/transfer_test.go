package transfer

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"bitdew/internal/data"
	"bitdew/internal/protocols/ftp"
	"bitdew/internal/protocols/httpx"
	"bitdew/internal/protocols/swarm"
	"bitdew/internal/repository"
	"bitdew/internal/rpc"
)

func randBytes(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// fixture bundles one serving host (ftp+http+tracker over one backend).
type fixture struct {
	backend  repository.Backend
	ftpSrv   *ftp.Server
	httpSrv  *httpx.Server
	tracker  *swarm.Tracker
	dt       *Service
	dtClient *Client
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	f := &fixture{backend: repository.NewMemBackend()}
	var err error
	if f.ftpSrv, err = ftp.NewServer(f.backend, "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.ftpSrv.Close() })
	if f.httpSrv, err = httpx.NewServer(f.backend, "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.httpSrv.Close() })
	if f.tracker, err = swarm.NewTracker("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.tracker.Close() })

	f.dt = NewService()
	mux := rpc.NewMux()
	f.dt.Mount(mux)
	f.dtClient = NewClient(rpc.NewLocalClient(mux, 0))
	return f
}

// seed stores content server-side and returns the datum.
func (f *fixture) seed(name string, content []byte) data.Data {
	d := *data.NewFromBytes(name, content)
	f.backend.Put(string(d.UID), content)
	return d
}

func (f *fixture) locator(d data.Data, protocol string) data.Locator {
	switch protocol {
	case "ftp":
		return data.Locator{DataUID: d.UID, Protocol: "ftp", Host: f.ftpSrv.Addr(), Ref: string(d.UID)}
	case "http":
		return data.Locator{DataUID: d.UID, Protocol: "http", Host: f.httpSrv.Addr(), Ref: string(d.UID)}
	case "bittorrent":
		return data.Locator{DataUID: d.UID, Protocol: "bittorrent", Host: f.tracker.Addr(), Ref: string(d.UID)}
	default:
		panic("unknown protocol " + protocol)
	}
}

func TestDownloadEachProtocol(t *testing.T) {
	for _, proto := range []string{"ftp", "http", "bittorrent"} {
		t.Run(proto, func(t *testing.T) {
			f := newFixture(t)
			content := randBytes(200_000, 1)
			d := f.seed("payload", content)

			if proto == "bittorrent" {
				// Seed the swarm from the server backend.
				meta := swarm.NewMetainfo(string(d.UID), content, 16*1024)
				seeder, err := swarm.NewSeeder(f.backend, meta, f.tracker.Addr(), "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				defer seeder.Close()
			}

			local := repository.NewMemBackend()
			e := NewEngine(local, f.dtClient, "worker-1", 2)
			e.MonitorPeriod = 20 * time.Millisecond
			h := e.Download(d, f.locator(d, proto))
			if err := h.Wait(); err != nil {
				t.Fatal(err)
			}
			got, err := local.Get(string(d.UID))
			if err != nil || !bytes.Equal(got, content) {
				t.Fatalf("downloaded %d bytes, %v", len(got), err)
			}
			if h.State() != StateComplete {
				t.Errorf("State = %v", h.State())
			}
			if p := h.Probe(); !p.Done || p.Bytes != d.Size {
				t.Errorf("Probe = %+v", p)
			}
		})
	}
}

func TestUploadFTPAndHTTP(t *testing.T) {
	for _, proto := range []string{"ftp", "http"} {
		t.Run(proto, func(t *testing.T) {
			f := newFixture(t)
			content := randBytes(90_000, 2)
			d := *data.NewFromBytes("up", content)
			local := repository.NewMemBackend()
			local.Put(string(d.UID), content)

			e := NewEngine(local, f.dtClient, "client-1", 2)
			h := e.Upload(d, f.locator(d, proto))
			if err := h.Wait(); err != nil {
				t.Fatal(err)
			}
			got, err := f.backend.Get(string(d.UID))
			if err != nil || !bytes.Equal(got, content) {
				t.Fatalf("uploaded %d bytes, %v", len(got), err)
			}
		})
	}
}

func TestDownloadVerifiesChecksum(t *testing.T) {
	f := newFixture(t)
	content := randBytes(10_000, 3)
	d := f.seed("tampered", content)
	// Tamper server-side after the datum was fingerprinted.
	f.backend.Put(string(d.UID), randBytes(10_000, 4))

	local := repository.NewMemBackend()
	e := NewEngine(local, f.dtClient, "w", 1)
	e.MaxAttempts = 2
	h := e.Download(d, f.locator(d, "http"))
	err := h.Wait()
	if err == nil {
		t.Fatal("download of tampered content succeeded")
	}
	if !strings.Contains(err.Error(), "checksum") {
		t.Errorf("err = %v, want checksum failure", err)
	}
	if _, gerr := local.Get(string(d.UID)); gerr == nil {
		t.Error("corrupt content left in local storage")
	}
}

func TestDownloadRetriesAndResumes(t *testing.T) {
	// Kill the ftp server mid-download... simpler: first locator points to
	// a dead port, engine retries against it and fails; then confirm the
	// attempt accounting through DT.
	f := newFixture(t)
	content := randBytes(5_000, 5)
	d := f.seed("x", content)
	dead := data.Locator{DataUID: d.UID, Protocol: "ftp", Host: "127.0.0.1:1", Ref: string(d.UID)}

	local := repository.NewMemBackend()
	e := NewEngine(local, f.dtClient, "w", 1)
	e.MaxAttempts = 3
	h := e.Download(d, dead)
	if err := h.Wait(); err == nil {
		t.Fatal("download from dead host succeeded")
	}
	if h.State() != StateFailed {
		t.Errorf("State = %v", h.State())
	}
	// Partial local prefix resumes rather than restarting.
	local.Put(string(d.UID), content[:2_000])
	h2 := e.Download(d, f.locator(d, "ftp"))
	if err := h2.Wait(); err != nil {
		t.Fatal(err)
	}
	got, _ := local.Get(string(d.UID))
	if !bytes.Equal(got, content) {
		t.Fatal("resumed download mismatch")
	}
}

func TestConcurrencyLimit(t *testing.T) {
	f := newFixture(t)
	content := randBytes(300_000, 6)
	d := f.seed("big", content)

	local := repository.NewMemBackend()
	e := NewEngine(local, nil, "w", 1) // concurrency 1
	// Two downloads of distinct data over one slot must serialise without
	// deadlock.
	d2 := f.seed("big2", randBytes(300_000, 7))
	h1 := e.Download(d, f.locator(d, "http"))
	h2 := e.Download(d2, f.locator(d2, "http"))
	if err := Barrier(h1, h2); err != nil {
		t.Fatal(err)
	}
}

func TestWaitForAndBarrier(t *testing.T) {
	f := newFixture(t)
	d := f.seed("a", randBytes(40_000, 8))
	local := repository.NewMemBackend()
	e := NewEngine(local, f.dtClient, "w", 4)
	e.Download(d, f.locator(d, "http"))
	if err := e.WaitFor(d.UID); err != nil {
		t.Fatal(err)
	}
	if err := e.WaitFor("never-started"); err != nil {
		t.Errorf("WaitFor unknown datum: %v", err)
	}
}

func TestWaitTimeout(t *testing.T) {
	h := &Handle{DataUID: "x", done: make(chan struct{})}
	if err := h.WaitTimeout(30 * time.Millisecond); err == nil {
		t.Fatal("WaitTimeout on never-finishing handle returned nil")
	}
}

func TestDTServiceTracking(t *testing.T) {
	f := newFixture(t)
	content := randBytes(60_000, 9)
	d := f.seed("tracked", content)
	local := repository.NewMemBackend()
	e := NewEngine(local, f.dtClient, "worker-7", 2)
	e.MonitorPeriod = 10 * time.Millisecond
	h := e.Download(d, f.locator(d, "ftp"))
	if err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	moved, requests := f.dt.Stats()
	if moved != d.Size {
		t.Errorf("bytesMoved = %d, want %d", moved, d.Size)
	}
	if requests < 1 { // at least the terminal report
		t.Errorf("requests = %d", requests)
	}
	if act := f.dt.Active(); len(act) != 0 {
		t.Errorf("Active after completion = %v", act)
	}
}

func TestDTServiceDirect(t *testing.T) {
	s := NewService()
	reg := reportArgs{ID: "t-1", DataUID: "data-1", Protocol: "ftp", Host: "host-1", Total: 100}
	active := reg
	active.Bytes, active.State, active.Attempts = 50, StateActive, 1
	if err := s.Report(active); err != nil {
		t.Fatal(err)
	}
	r, err := s.Get("t-1")
	if err != nil || r.Bytes != 50 || r.State != StateActive || r.Attempts != 1 || r.DataUID != "data-1" || r.Total != 100 {
		t.Fatalf("Get = %+v, %v", r, err)
	}
	// A resumed transfer says so in its next report: no call of its own.
	active.Attempts = 2
	if err := s.Report(active); err != nil {
		t.Fatal(err)
	}
	if r, _ = s.Get("t-1"); r.Attempts != 2 {
		t.Errorf("Attempts = %d", r.Attempts)
	}
	// A bare progress update applies to a transfer the service knows.
	if err := s.Report(reportArgs{ID: "t-1", Bytes: 100, State: StateComplete}); err != nil {
		t.Fatal(err)
	}
	if moved, _ := s.Stats(); moved != 100 {
		t.Errorf("bytesMoved = %d, want 100", moved)
	}
	if len(s.Active()) != 0 {
		t.Error("completed transfer still active")
	}
	// A progress sample that lost the race against the terminal report must
	// not bring the transfer back.
	if err := s.Report(active); err != nil {
		t.Fatal(err)
	}
	if r, _ = s.Get("t-1"); r.State != StateComplete || len(s.Active()) != 0 {
		t.Errorf("late sample resurrected the transfer: %+v", r)
	}
	// Unknown IDs error, unless the report registers them.
	if err := s.Report(reportArgs{ID: "nope", State: StateActive}); err == nil {
		t.Error("bare Report of an unknown id succeeded")
	}
	if _, err := s.Get("nope"); err == nil {
		t.Error("Get unknown id succeeded")
	}
}

// TestDTRegistryForgets: the registry keeps what is in flight plus the last
// terminal record per (datum, host). It used to keep every transfer ever
// opened, and Active walked them all under the service's lock.
func TestDTRegistryForgets(t *testing.T) {
	s := NewService()
	for i := 0; i < 10_000; i++ {
		a := reportArgs{
			ID: data.UID(fmt.Sprintf("t-%05d", i)), Bytes: 7, State: StateComplete,
			DataUID: "hot", Protocol: "http", Host: "w", Total: 7, Attempts: 1,
		}
		if err := s.Report(a); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.ended) != 1 || len(s.last) != 1 || len(s.live) != 0 {
		t.Fatalf("after 10000 completed transfers of one datum: %d terminal records, %d endpoints, %d live; want 1, 1, 0",
			len(s.ended), len(s.last), len(s.live))
	}
	if r, err := s.Get("t-09999"); err != nil || r.State != StateComplete {
		t.Errorf("last terminal record: %+v, %v", r, err)
	}
	if act := s.Active(); len(act) != 0 {
		t.Errorf("Active = %v", act)
	}
	if moved, _ := s.Stats(); moved != 70_000 {
		t.Errorf("bytesMoved = %d, want 70000", moved)
	}
	// Another host's transfer of the same datum is its own endpoint.
	s.Report(reportArgs{ID: "other", State: StateFailed, DataUID: "hot", Host: "w2", Err: "boom"})
	if len(s.ended) != 2 {
		t.Errorf("%d terminal records for 2 endpoints", len(s.ended))
	}
}

func TestDTClientOverTCP(t *testing.T) {
	s := NewService()
	mux := rpc.NewMux()
	s.Mount(mux)
	srv, err := rpc.Listen("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rcl, err := rpc.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rcl.Close()
	c := NewClient(rcl)
	id, err := c.Open("d", "http", "h", 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Report(id, 5, StateActive, ""); err != nil {
		t.Fatal(err)
	}
	r, err := c.Get(id)
	if err != nil || r.Bytes != 5 || r.DataUID != "d" || r.Host != "h" || r.Total != 10 {
		t.Fatalf("Get = %+v, %v", r, err)
	}
	act, err := c.Active()
	if err != nil || len(act) != 1 {
		t.Fatalf("Active = %v, %v", act, err)
	}
	// The deleted methods are gone from the wire: an old client's Open is
	// refused, and it then runs unreported.
	if err := rcl.Call(ServiceName, "Open", struct{}{}, nil); err == nil {
		t.Error("dt/Open still served")
	}
	if err := rcl.Call(ServiceName, "Retry", id, nil); err == nil {
		t.Error("dt/Retry still served")
	}
}

func TestProtocolRegistry(t *testing.T) {
	protos := Protocols()
	want := map[string]bool{"ftp": true, "http": true, "bittorrent": true}
	for _, p := range protos {
		delete(want, p)
	}
	if len(want) != 0 {
		t.Errorf("missing protocols: %v (have %v)", want, protos)
	}
	d := *data.NewFromBytes("x", []byte("y"))
	if _, err := New(d, data.Locator{DataUID: d.UID, Protocol: "carrier-pigeon", Host: "h"}, repository.NewMemBackend()); err == nil {
		t.Error("unknown protocol accepted")
	}
}

func TestStateString(t *testing.T) {
	for st, want := range map[State]string{
		StatePending: "pending", StateActive: "active", StateComplete: "complete",
		StateFailed: "failed", StateCancelled: "cancelled", State(99): "state(99)",
	} {
		if got := st.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", int(st), got, want)
		}
	}
}

func TestManyParallelDownloads(t *testing.T) {
	f := newFixture(t)
	const n = 10
	datas := make([]data.Data, n)
	for i := range datas {
		datas[i] = f.seed(fmt.Sprintf("d%d", i), randBytes(30_000, int64(100+i)))
	}
	local := repository.NewMemBackend()
	e := NewEngine(local, f.dtClient, "w", 4)
	var handles []*Handle
	for _, d := range datas {
		handles = append(handles, e.Download(d, f.locator(d, "http")))
	}
	if err := Barrier(handles...); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Wait()
	for _, d := range datas {
		got, err := local.Get(string(d.UID))
		if err != nil || int64(len(got)) != d.Size {
			t.Errorf("datum %s: %d bytes, %v", d.Name, len(got), err)
		}
	}
}

func TestUploadResumesAfterPartialStore(t *testing.T) {
	// The server already holds a prefix of the content (an interrupted
	// earlier upload); the ftp transfer must resume rather than restart.
	f := newFixture(t)
	content := randBytes(70_000, 20)
	d := *data.NewFromBytes("partial", content)
	f.backend.Put(string(d.UID), content[:30_000]) // server-side prefix

	local := repository.NewMemBackend()
	local.Put(string(d.UID), content)
	e := NewEngine(local, f.dtClient, "up", 1)
	h := e.Upload(d, f.locator(d, "ftp"))
	if err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	got, err := f.backend.Get(string(d.UID))
	if err != nil || !bytes.Equal(got, content) {
		t.Fatalf("resumed upload: %d bytes, %v", len(got), err)
	}
}

func TestDownloadSwarmFailsWithoutMetainfo(t *testing.T) {
	f := newFixture(t)
	content := randBytes(5_000, 21)
	d := f.seed("unmeta", content) // no seeder registered metainfo
	local := repository.NewMemBackend()
	e := NewEngine(local, f.dtClient, "w", 1)
	e.MaxAttempts = 1
	h := e.Download(d, f.locator(d, "bittorrent"))
	if err := h.Wait(); err == nil {
		t.Fatal("swarm download without metainfo succeeded")
	}
}
