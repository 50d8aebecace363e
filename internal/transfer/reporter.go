package transfer

import (
	"sync"
	"time"
)

// reporter is an engine's one sender to one DT service. The paper's DT is
// receiver-driven and periodic: a host reports its transfers on the
// monitoring heartbeat, not a message per event. A transfer's terminal report
// therefore parks in the outbox and never leaves in a frame of its own; it
// leaves with whichever of these comes first:
//
//   - a frame the host sends that service anyway, which takes the outbox
//     (TakeReports) and carries it in front of its own calls — a put's
//     frame, a fetch's lookup, a delete, a worker's next heartbeat — or
//     which the outbox is (Flush: once a fetch's downloads end, one report
//     frame to each home shard its lookup did not reach, carrying the
//     outbox alone);
//   - the monitoring period, one frame with a progress sample of every
//     transfer still running — a finished transfer is at most one period
//     stale at the DT, a long one shows up with advancing bytes.
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

// begin counts h in flight and, when the reporter was idle (nothing in flight,
// nothing parked), arms the heartbeat one period ahead. A busy reporter's
// heartbeat is already armed and is never pushed back: a closed loop of short
// transfers still sees it every period.
func (r *reporter) begin(h *Handle) {
	r.mu.Lock()
	defer r.mu.Unlock()
	idle := len(r.active) == 0 && len(r.outbox) == 0
	r.active[h] = struct{}{}
	if r.timer == nil {
		r.timer = time.AfterFunc(r.e.MonitorPeriod, r.beat)
	} else if idle {
		r.timer.Reset(r.e.MonitorPeriod)
	}
}

// end parks h's terminal report until a frame takes it or the heartbeat
// ships it.
func (r *reporter) end(h *Handle) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.active, h)
	r.outbox = append(r.outbox, h.report())
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
	r.flush(true)
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.active) > 0 || len(r.outbox) > 0 {
		r.timer.Reset(r.e.MonitorPeriod)
	}
}

// flush ships the outbox as one frame, with a progress sample of every
// transfer in flight when sample is set (the heartbeat's), and sends nothing
// when there is nothing to send. A fetch's deliberate flush sends only the
// outbox: the samples are the period's.
func (r *reporter) flush(sample bool) {
	r.sending <- struct{}{}
	defer func() { <-r.sending }()
	r.mu.Lock()
	reports := r.outbox
	r.outbox = nil
	for h := range r.active {
		if !sample {
			break
		}
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
