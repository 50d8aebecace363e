package core

import (
	"time"

	"bitdew/internal/data"
	"bitdew/internal/transfer"
)

// TransferManager is the non-blocking transfer API of paper §3.3: probe
// transfers, wait for completion, create barriers and tune concurrency.
type TransferManager struct {
	engine *transfer.Engine
}

// NewTransferManager wraps the node's transfer engine.
func NewTransferManager(engine *transfer.Engine) *TransferManager {
	return &TransferManager{engine: engine}
}

// Download starts an asynchronous fetch of d from loc. Its DT report leaves
// within one monitoring period, or in the next frame to its home shard, not
// before Wait returns.
func (t *TransferManager) Download(d data.Data, loc data.Locator) *transfer.Handle {
	return t.engine.Download(d, loc)
}

// Upload starts an asynchronous push of d's local content to loc, reported
// like Download.
func (t *TransferManager) Upload(d data.Data, loc data.Locator) *transfer.Handle {
	return t.engine.Upload(d, loc)
}

// WaitFor blocks until every transfer of the datum completes — the
// paper's transferManager.waitFor(data).
func (t *TransferManager) WaitFor(d data.Data) error {
	return t.engine.WaitFor(d.UID)
}

// Barrier blocks until every given transfer completes, returning the first
// error.
func (t *TransferManager) Barrier(handles ...*transfer.Handle) error {
	return transfer.Barrier(handles...)
}

// Probe reports a handle's progress without blocking.
func (t *TransferManager) Probe(h *transfer.Handle) transfer.Progress {
	return h.Probe()
}

// SetMonitorPeriod tunes the receiver-driven monitoring heartbeat.
func (t *TransferManager) SetMonitorPeriod(d time.Duration) {
	t.engine.MonitorPeriod = d
}

// SetMaxAttempts tunes how many times a faulty transfer is resumed before
// being declared failed (the programmer's resume-or-cancel preference).
func (t *TransferManager) SetMaxAttempts(n int) {
	if n > 0 {
		t.engine.MaxAttempts = n
	}
}
