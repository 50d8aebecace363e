package transfer

import (
	"sync"
	"time"
)

// reporter is an engine's one sender to one DT service. The paper's DT is
// receiver-driven and periodic: a host reports its transfers on the
// monitoring heartbeat, not a message per event. A transfer's terminal report
// therefore parks in the outbox, and the outbox leaves as one batch frame on
// exactly two occasions:
//
//   - on the monitoring period while anything is in flight to this service,
//     with a progress sample of every transfer still running — a finished
//     transfer is at most one period stale at the DT, a long one shows up
//     with advancing bytes;
//   - inline, by the transfer that leaves nothing in flight, before it wakes
//     its waiters — a burst of N transfers costs one frame, sent before the
//     caller that waited for them returns, and the number of frames follows
//     from the work, never from what queued behind what.
//
// Reports are monitoring only: a frame the service refuses or never receives
// changes nothing about the transfers it describes.
type reporter struct {
	e  *Engine
	dt *Client

	// sending is the one-slot token of whoever is reading the state below
	// into a frame and shipping it, so frames leave in the order their
	// contents were read: a progress sample never overtakes the terminal
	// report of the same transfer, which would leave it in flight at the
	// service for ever.
	sending chan struct{}

	mu     sync.Mutex
	active map[*Handle]struct{} // started, not yet ended
	outbox []reportArgs         // terminal reports waiting to leave
	timer  *time.Timer          // the heartbeat, one period ahead while any of either
}

func newReporter(e *Engine, dt *Client) *reporter {
	return &reporter{e: e, dt: dt, sending: make(chan struct{}, 1), active: make(map[*Handle]struct{})}
}

// begin counts h in flight and starts the heartbeat, one period from the
// start of the busy spell: transfers that all end within a period never see it.
func (r *reporter) begin(h *Handle) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.active[h] = struct{}{}
	if r.timer == nil {
		r.timer = time.AfterFunc(r.e.MonitorPeriod, r.beat)
	} else if len(r.active) == 1 {
		r.timer.Reset(r.e.MonitorPeriod)
	}
}

// end parks h's terminal report, and ships the outbox when h was the last in
// flight — unless h is held for its caller's own frame (TakeReports), which
// the heartbeat backs up should the caller never take it.
func (r *reporter) end(h *Handle) {
	r.mu.Lock()
	delete(r.active, h)
	r.outbox = append(r.outbox, h.report())
	last := len(r.active) == 0 && !h.held
	if last {
		r.timer.Stop()
	}
	r.mu.Unlock()
	if last {
		r.flush()
	}
}

// take empties the outbox into the caller's hands.
func (r *reporter) take() []reportArgs {
	r.sending <- struct{}{}
	defer func() { <-r.sending }()
	r.mu.Lock()
	defer r.mu.Unlock()
	reports := r.outbox
	r.outbox = nil
	if len(r.active) == 0 {
		r.timer.Stop()
	}
	return reports
}

// beat is the heartbeat: one frame, then another period if anything is left.
func (r *reporter) beat() {
	r.flush()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.active) > 0 || len(r.outbox) > 0 {
		r.timer.Reset(r.e.MonitorPeriod)
	}
}

// flush ships the outbox and a progress sample of every transfer in flight
// (none, when the last to end calls it) as one frame.
func (r *reporter) flush() {
	r.sending <- struct{}{}
	defer func() { <-r.sending }()
	r.mu.Lock()
	reports := r.outbox
	r.outbox = nil
	for h := range r.active {
		// A transfer that has settled is skipped: its terminal report is on
		// its way into the outbox and leaves in a later frame.
		if a := h.report(); a.State == StatePending || a.State == StateActive {
			reports = append(reports, a)
		}
	}
	r.mu.Unlock()
	if len(reports) > 0 {
		_ = r.dt.reportAll(reports) // monitoring only, see above
	}
}
