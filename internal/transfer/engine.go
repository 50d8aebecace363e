package transfer

import (
	"fmt"
	"sync"
	"time"

	"bitdew/internal/data"
	"bitdew/internal/repository"
)

// DefaultMonitorPeriod is the receiver-driven monitoring heartbeat; the
// paper's stress experiments configure the DT heartbeat at 500ms.
const DefaultMonitorPeriod = 500 * time.Millisecond

// DefaultMaxAttempts bounds automatic resume attempts per transfer.
const DefaultMaxAttempts = 3

// Engine executes out-of-band transfers on a volatile host: it enforces a
// concurrency level, retries and resumes faulty transfers, reports progress
// to the DT service on the monitoring period, and verifies content
// integrity (size + MD5) on completion. It is the machinery beneath the
// TransferManager API.
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
	}
}

// dtOf resolves the DT client of one datum (nil when unreported).
func (e *Engine) dtOf(uid data.UID) *Client {
	if e.dtFor == nil {
		return nil
	}
	return e.dtFor(uid)
}

// Backend exposes the engine's local storage.
func (e *Engine) Backend() repository.Backend { return e.backend }

// Handle tracks one asynchronous transfer.
type Handle struct {
	DataUID data.UID
	Kind    string // "download" | "upload"

	mu       sync.Mutex
	progress Progress
	state    State
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

// Probe returns the latest observed progress without blocking.
func (h *Handle) Probe() Progress {
	h.mu.Lock()
	defer h.mu.Unlock()
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

func (h *Handle) finish(state State, err error) {
	h.mu.Lock()
	h.state = state
	h.err = err
	h.mu.Unlock()
	close(h.done)
}

// Download starts fetching d from loc into local storage and returns
// immediately (the non-blocking interface of the TransferManager API).
func (e *Engine) Download(d data.Data, loc data.Locator) *Handle {
	return e.start(d, loc, "download", "", false)
}

// Upload starts pushing d's local content to loc.
func (e *Engine) Upload(d data.Data, loc data.Locator) *Handle {
	return e.start(d, loc, "upload", "", false)
}

// UploadAll starts one upload per (ds[i], locs[i]) pair, registering the N
// transfers with their DT services in a single batch frame per service
// (one per home shard, instead of one Open round trip per transfer) — the
// engine-side leg of the batch-first request path. The transfers themselves
// then run concurrently under the engine's usual concurrency cap.
func (e *Engine) UploadAll(ds []data.Data, locs []data.Locator) []*Handle {
	ids := make([]data.UID, len(ds))
	// Group the opens by DT client: a single-plane engine makes one
	// OpenAll, a sharded one makes one per shard with uploads homed there.
	groups := make(map[*Client][]int)
	for i, d := range ds {
		if dt := e.dtOf(d.UID); dt != nil {
			groups[dt] = append(groups[dt], i)
		}
	}
	for dt, idx := range groups {
		reqs := make([]OpenRequest, len(idx))
		for j, i := range idx {
			reqs[j] = OpenRequest{DataUID: ds[i].UID, Protocol: locs[i].Protocol, Host: e.host, Total: ds[i].Size}
		}
		if opened, err := dt.OpenAll(reqs); err == nil && len(opened) == len(idx) {
			for j, i := range idx {
				ids[i] = opened[j]
			}
		}
	}
	handles := make([]*Handle, len(ds))
	for i, d := range ds {
		handles[i] = e.start(d, locs[i], "upload", ids[i], true)
	}
	return handles
}

// start launches one transfer goroutine. dtOpened marks that DT
// registration was already attempted (the batched OpenAll); a zero dtID
// then means the open failed and the transfer runs unreported rather than
// re-opening against a service that just refused.
//
// Concurrent downloads of one datum coalesce: the second caller gets the
// first transfer's handle. A download that fails leaves the inflight slot
// free again, so a caller falling back through alternative locators still
// launches its own fresh attempt.
func (e *Engine) start(d data.Data, loc data.Locator, kind string, dtID data.UID, dtOpened bool) *Handle {
	e.mu.Lock()
	if kind == "download" {
		if h := e.inflight[d.UID]; h != nil {
			e.mu.Unlock()
			return h
		}
	}
	h := &Handle{DataUID: d.UID, Kind: kind, state: StatePending, done: make(chan struct{})}
	if kind == "download" {
		e.inflight[d.UID] = h
	}
	e.handles[d.UID] = append(e.handles[d.UID], h)
	e.mu.Unlock()
	go func() {
		state, err := e.run(h, d, loc, dtID, dtOpened)
		// Retire before finish wakes the waiters: one of them may start the
		// next download of this datum at once, and must not be handed this
		// finished handle out of inflight.
		e.retire(h)
		h.finish(state, err)
	}()
	return h
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

// run executes one transfer with retry/resume, monitoring and verification,
// and returns its terminal state. dtID is the pre-opened DT registration
// (UploadAll's batched open), or empty to open one here — unless dtOpened
// says the batched attempt already failed, in which case the transfer runs
// unreported.
func (e *Engine) run(h *Handle, d data.Data, loc data.Locator, dtID data.UID, dtOpened bool) (State, error) {
	e.sem <- struct{}{}
	defer func() { <-e.sem }()

	dt := e.dtOf(d.UID)
	if dtID == "" && !dtOpened && dt != nil {
		id, err := dt.Open(d.UID, loc.Protocol, e.host, d.Size)
		if err == nil {
			dtID = id
		}
	}
	report := func(p Progress, st State, msg string) {
		h.mu.Lock()
		h.progress = p
		h.state = st
		h.mu.Unlock()
		if dt != nil && dtID != "" {
			dt.Report(dtID, p.Bytes, st, msg)
		}
	}

	var lastErr error
	for attempt := 1; attempt <= e.MaxAttempts; attempt++ {
		if attempt > 1 && dt != nil && dtID != "" {
			dt.Retry(dtID)
		}
		t, err := New(d, loc, e.backend)
		if err != nil {
			report(Progress{}, StateFailed, err.Error())
			return StateFailed, err
		}
		err = e.attempt(t, h, report)
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
			p := Progress{Bytes: d.Size, Total: d.Size, Done: true}
			report(p, StateComplete, "")
			return StateComplete, nil
		}
		lastErr = err
	}
	report(h.Probe(), StateFailed, lastErr.Error())
	return StateFailed, fmt.Errorf("transfer: %s of %s failed after %d attempts: %w",
		h.Kind, d.UID, e.MaxAttempts, lastErr)
}

// attempt performs one protocol run while a monitor goroutine samples
// progress on the monitoring period.
func (e *Engine) attempt(t OOBTransfer, h *Handle, report func(Progress, State, string)) error {
	if err := t.Connect(); err != nil {
		return err
	}
	stop := make(chan struct{})
	var monWG sync.WaitGroup
	monWG.Add(1)
	go func() {
		defer monWG.Done()
		ticker := time.NewTicker(e.MonitorPeriod)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				if p, err := t.Probe(); err == nil {
					report(p, StateActive, "")
				}
			}
		}
	}()
	var err error
	if h.Kind == "upload" {
		err = t.Send()
	} else {
		err = t.Receive()
	}
	close(stop)
	monWG.Wait()
	return err
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
