package transfer

import (
	"fmt"
	"sync"
	"time"

	"bitdew/internal/data"
	"bitdew/internal/repository"
	"bitdew/internal/rpc"
)

// DefaultMonitorPeriod is the receiver-driven monitoring heartbeat; the
// paper's stress experiments configure the DT heartbeat at 500ms.
const DefaultMonitorPeriod = 500 * time.Millisecond

// DefaultMaxAttempts bounds automatic resume attempts per transfer.
const DefaultMaxAttempts = 3

// Engine executes out-of-band transfers on a volatile host: it enforces a
// concurrency level, retries and resumes faulty transfers, reports them to
// the DT service (one reporter per service, see reporter.go), and verifies
// content integrity (size + MD5) on completion. It is the machinery beneath
// the TransferManager API.
type Engine struct {
	backend repository.Backend
	// dtFor routes a datum's monitoring to its DT service — over a sharded
	// service plane, the DT of the datum's home shard. It may be nil, or
	// return nil, when running detached from any DT service.
	dtFor func(data.UID) *Client
	host  string

	MonitorPeriod time.Duration
	MaxAttempts   int

	sem chan struct{}

	mu sync.Mutex
	// handles holds, per datum, the transfers in flight and the last one
	// that finished — what WaitFor waits on — and nothing older.
	handles map[data.UID][]*Handle
	// inflight coalesces concurrent downloads of one datum onto a single
	// transfer. Two goroutines appending the same stream into one backend
	// ref interleave into oversized content, which verification then deletes
	// — possibly right after the OTHER download reported success, stranding
	// its caller with no content. Under the sustained-load harness (many
	// clients fetching a shared working set through one engine) that window
	// is hit constantly; coalescing makes the second caller wait on the
	// first transfer's handle instead.
	inflight map[data.UID]*Handle
	// reporters holds the one sender per DT service this engine reports to.
	reporters map[*Client]*reporter
}

// NewEngine builds a transfer engine over local storage. dt may be nil
// (transfers then run unreported, as in protocol-only benchmarks);
// concurrency is the maximum number of simultaneous transfers.
func NewEngine(backend repository.Backend, dt *Client, host string, concurrency int) *Engine {
	var dtFor func(data.UID) *Client
	if dt != nil {
		dtFor = func(data.UID) *Client { return dt }
	}
	return NewEngineRouted(backend, dtFor, host, concurrency)
}

// NewEngineRouted is NewEngine with per-datum DT routing: dtFor maps each
// datum to the DT client its transfers report to (the home shard's, over a
// sharded service plane). A nil dtFor — or a nil client returned for a
// datum — runs those transfers unreported.
func NewEngineRouted(backend repository.Backend, dtFor func(data.UID) *Client, host string, concurrency int) *Engine {
	if concurrency <= 0 {
		concurrency = 4
	}
	return &Engine{
		backend:       backend,
		dtFor:         dtFor,
		host:          host,
		MonitorPeriod: DefaultMonitorPeriod,
		MaxAttempts:   DefaultMaxAttempts,
		sem:           make(chan struct{}, concurrency),
		handles:       make(map[data.UID][]*Handle),
		inflight:      make(map[data.UID]*Handle),
		reporters:     make(map[*Client]*reporter),
	}
}

// Backend exposes the engine's local storage.
func (e *Engine) Backend() repository.Backend { return e.backend }

// Handle tracks one asynchronous transfer.
type Handle struct {
	DataUID data.UID
	Kind    string // "download" | "upload"

	// reg is the transfer's DT registration under the ID minted for it, and
	// rep the reporter of its DT service (nil when it runs unreported). held
	// marks an upload whose caller ships the terminal report (UploadAll).
	reg  reportArgs
	rep  *reporter
	held bool

	mu       sync.Mutex
	cur      OOBTransfer // the attempt in progress, probed live
	progress Progress
	state    State
	attempts int
	err      error
	done     chan struct{}

	retired bool // guarded by Engine.mu: the transfer has ended
}

// Err returns the terminal error (nil while running or on success).
func (h *Handle) Err() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.err
}

// State returns the current state.
func (h *Handle) State() State {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state
}

// Probe returns the transfer's progress without blocking: the receiver's
// own count while an attempt is running, the last one observed otherwise.
func (h *Handle) Probe() Progress {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.probeLocked()
}

func (h *Handle) probeLocked() Progress {
	if h.cur != nil {
		if p, err := h.cur.Probe(); err == nil {
			h.progress = p
		}
	}
	return h.progress
}

// Wait blocks until the transfer reaches a terminal state and returns its
// error, mirroring the paper's transferManager.waitFor(data).
func (h *Handle) Wait() error {
	<-h.done
	return h.Err()
}

// WaitTimeout is Wait with a deadline.
func (h *Handle) WaitTimeout(d time.Duration) error {
	select {
	case <-h.done:
		return h.Err()
	case <-time.After(d):
		return fmt.Errorf("transfer: wait for %s timed out after %v", h.DataUID, d)
	}
}

// attach makes t the handle's running attempt, the n-th; a nil t ends it,
// keeping the progress it reached.
func (h *Handle) attach(t OOBTransfer, n int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.probeLocked()
	h.cur, h.attempts, h.state = t, n, StateActive
}

// settle records the terminal state. Waiters wake when done closes.
func (h *Handle) settle(state State, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.state, h.err = state, err
	if state == StateComplete {
		h.progress = Progress{Bytes: h.reg.Total, Total: h.reg.Total, Done: true}
	}
}

// report is the handle's DT report as of now.
func (h *Handle) report() reportArgs {
	h.mu.Lock()
	defer h.mu.Unlock()
	a := h.reg
	a.Bytes, a.State, a.Attempts = h.probeLocked().Bytes, h.state, h.attempts
	if h.err != nil {
		a.Err = h.err.Error()
	}
	return a
}

// Download starts fetching d from loc into local storage and returns
// immediately (the non-blocking interface of the TransferManager API).
func (e *Engine) Download(d data.Data, loc data.Locator) *Handle {
	return e.start(d, loc, "download", false)
}

// Upload starts pushing d's local content to loc.
func (e *Engine) Upload(d data.Data, loc data.Locator) *Handle {
	return e.start(d, loc, "upload", false)
}

// UploadAll starts one upload per (ds[i], locs[i]) pair for a caller with a
// frame of its own going to the same service once they end (Put's commit):
// their terminal DT reports wait for TakeReports instead of leaving in a frame
// of their own, and leave on the monitoring heartbeat if nobody takes them.
func (e *Engine) UploadAll(ds []data.Data, locs []data.Locator) []*Handle {
	return e.startAll(ds, locs, "upload", true)
}

// DownloadAll starts one download per (ds[i], locs[i]) pair as one batch:
// every transfer is in flight at its DT service before the first of them
// runs, so however quickly one ends it is not the last, and the batch costs
// each service exactly one report frame.
func (e *Engine) DownloadAll(ds []data.Data, locs []data.Locator) []*Handle {
	return e.startAll(ds, locs, "download", false)
}

func (e *Engine) startAll(ds []data.Data, locs []data.Locator, kind string, held bool) []*Handle {
	handles := make([]*Handle, len(ds))
	fresh := make([]bool, len(ds))
	for i, d := range ds {
		handles[i], fresh[i] = e.admit(d, locs[i], kind, held)
	}
	for i, h := range handles {
		if fresh[i] {
			go e.launch(h, ds[i], locs[i])
		}
	}
	return handles
}

// TakeReports hands the caller every report waiting to leave for dt, as
// batchable calls to put in front of its own in one frame to that service.
func (e *Engine) TakeReports(dt *Client) []*rpc.Call {
	e.mu.Lock()
	r := e.reporters[dt]
	e.mu.Unlock()
	if r == nil {
		return nil
	}
	return reportCalls(r.take())
}

// start admits and launches one transfer.
func (e *Engine) start(d data.Data, loc data.Locator, kind string, held bool) *Handle {
	h, fresh := e.admit(d, loc, kind, held)
	if fresh {
		go e.launch(h, d, loc)
	}
	return h
}

// admit books one transfer. It is in flight at its DT service from here on,
// not from when it is launched or wins a concurrency slot: when "nothing is
// left in flight" must not depend on scheduling.
//
// Concurrent downloads of one datum coalesce: the second caller gets the
// first transfer's handle, and fresh is false. A download that fails leaves
// the inflight slot free again, so a caller falling back through alternative
// locators still launches its own fresh attempt.
func (e *Engine) admit(d data.Data, loc data.Locator, kind string, held bool) (h *Handle, fresh bool) {
	var dt *Client
	if e.dtFor != nil {
		dt = e.dtFor(d.UID)
	}
	e.mu.Lock()
	if kind == "download" {
		if h := e.inflight[d.UID]; h != nil {
			e.mu.Unlock()
			return h, false
		}
	}
	h = &Handle{DataUID: d.UID, Kind: kind, state: StatePending, done: make(chan struct{})}
	h.reg = reportArgs{DataUID: d.UID, Protocol: loc.Protocol, Host: e.host, Total: d.Size}
	if kind == "download" {
		e.inflight[d.UID] = h
	}
	e.handles[d.UID] = append(e.handles[d.UID], h)
	if dt != nil {
		h.reg.ID, h.held = data.NewUID(), held
		if h.rep = e.reporters[dt]; h.rep == nil {
			h.rep = newReporter(e, dt)
			e.reporters[dt] = h.rep
		}
		h.rep.begin(h) // under e.mu: a reporter TakeReports can find has begun
	}
	e.mu.Unlock()
	return h, true
}

// launch runs an admitted transfer to its end, on a goroutine of its own.
func (e *Engine) launch(h *Handle, d data.Data, loc data.Locator) {
	state, err := e.run(h, d, loc)
	// Retire before the waiters wake: one of them may start the next
	// download of this datum at once, and must not be handed this
	// finished handle out of inflight.
	e.retire(h)
	h.settle(state, err)
	if h.rep != nil {
		h.rep.end(h)
	}
	close(h.done)
}

// retire takes an ended transfer out of the engine's books: its inflight
// slot, and every earlier finished handle of its datum.
func (e *Engine) retire(h *Handle) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.inflight[h.DataUID] == h {
		delete(e.inflight, h.DataUID)
	}
	h.retired = true
	live := e.handles[h.DataUID][:0]
	for _, o := range e.handles[h.DataUID] {
		if !o.retired {
			live = append(live, o)
		}
	}
	e.handles[h.DataUID] = append(live, h)
}

// WaitFor blocks until every transfer of the given datum completes,
// returning the first error.
func (e *Engine) WaitFor(uid data.UID) error {
	e.mu.Lock()
	hs := append([]*Handle(nil), e.handles[uid]...)
	e.mu.Unlock()
	var first error
	for _, h := range hs {
		if err := h.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Barrier blocks until every handle completes, returning the first error —
// the transfer barrier of the TransferManager API.
func Barrier(handles ...*Handle) error {
	var first error
	for _, h := range handles {
		if err := h.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// run executes one transfer with retry/resume and verification, and returns
// its terminal state.
func (e *Engine) run(h *Handle, d data.Data, loc data.Locator) (State, error) {
	e.sem <- struct{}{}
	defer func() { <-e.sem }()

	var lastErr error
	for attempt := 1; attempt <= e.MaxAttempts; attempt++ {
		t, err := New(d, loc, e.backend)
		if err != nil {
			return StateFailed, err
		}
		err = e.attempt(t, h, attempt)
		// Receiver-driven verification: the receiver checks size and MD5
		// signature of what landed before declaring success.
		if err == nil && h.Kind == "download" {
			if err = e.verify(d, t); err != nil {
				// Corrupt content: discard and retry from scratch.
				e.backend.Delete(string(d.UID))
			}
		}
		t.Disconnect()
		if err == nil {
			return StateComplete, nil
		}
		lastErr = err
	}
	return StateFailed, fmt.Errorf("transfer: %s of %s failed after %d attempts: %w",
		h.Kind, d.UID, e.MaxAttempts, lastErr)
}

// attempt performs one protocol run, the handle's n-th. While it runs the
// handle probes t live, for its own callers and for the reporter's heartbeat.
func (e *Engine) attempt(t OOBTransfer, h *Handle, n int) error {
	h.attach(t, n)
	defer h.attach(nil, n)
	if err := t.Connect(); err != nil {
		return err
	}
	if h.Kind == "upload" {
		return t.Send()
	}
	return t.Receive()
}

// verify checks the downloaded content against the datum's recorded size
// and MD5 checksum. Data with no recorded checksum (empty slots) pass. The
// checksum is the one the receiver took while the bytes landed; a protocol
// that stores content some other way has it hashed off the backend's reader.
func (e *Engine) verify(d data.Data, t OOBTransfer) error {
	if d.Checksum == "" && d.Size == 0 {
		return nil
	}
	stored, err := e.backend.Size(string(d.UID))
	if err != nil {
		return fmt.Errorf("transfer: verifying %s: %w", d.UID, err)
	}
	if stored != d.Size {
		return fmt.Errorf("transfer: %s: received %d bytes, want %d", d.UID, stored, d.Size)
	}
	var sum string
	if p, err := t.Probe(); err == nil {
		sum = p.Checksum
	}
	if sum == "" {
		content, _, err := repository.OpenReader(e.backend, string(d.UID))
		if err != nil {
			return fmt.Errorf("transfer: verifying %s: %w", d.UID, err)
		}
		sum, err = data.ChecksumReader(content)
		content.Close()
		if err != nil {
			return fmt.Errorf("transfer: verifying %s: %w", d.UID, err)
		}
	}
	if sum != d.Checksum {
		return fmt.Errorf("transfer: %s: checksum %s != recorded %s", d.UID, sum, d.Checksum)
	}
	return nil
}
