package scheduler

import (
	"fmt"

	"bitdew/internal/codec"
	"bitdew/internal/data"
)

// Replication support: the range gate keeps a replicated scheduler from
// acting on key ranges its shard does not currently own (a rejoined
// ex-primary holds stale Θ entries recovered from disk — they must neither
// be assigned to hosts nor reported as drops), and AdoptRows is how a
// promoted shard rebuilds live scheduler state from a dead peer's
// replicated persistence rows.

// SetRangeGate installs the shard-ownership gate: when set, Schedule and
// Pin refuse data whose UID's key range is not served by this shard
// (returning the gate's error, which clients treat as a retry-elsewhere
// redirect), and sync rounds ignore gated entries entirely.
func (s *Service) SetRangeGate(gate func(uid data.UID) error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gate = gate
}

// gateLocked returns nil when uid may be acted on here.
func (s *Service) gateLocked(uid data.UID) error {
	if s.gate == nil {
		return nil
	}
	return s.gate(uid)
}

// AdoptRows installs replicated persistence rows (raw persistedEntry
// records keyed by UID, as shipped in the "ds_entries" stream) as live
// scheduler state: Θ entries, Ω owners and pins are rebuilt exactly as a
// durable restart would, and each adopted row is persisted through this
// shard's own store — re-entering its outbound stream, so the adopted range
// replicates onward. Host sessions are not touched: owners re-confirm
// through their next full resync, the protocol's designed recovery path.
func (s *Service) AdoptRows(rows map[string][]byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for key, raw := range rows {
		var p persistedEntry
		if err := codec.Unmarshal(raw, &p); err != nil {
			return fmt.Errorf("scheduler: adopt %s: %w", key, err)
		}
		uid := data.UID(key)
		s.theta[uid] = &Entry{Data: p.Data, Attr: p.Attr, scheduledAt: p.ScheduledAt, order: p.Order}
		if len(p.Owners) > 0 {
			s.owners[uid] = s.heardNow(p.Owners)
		} else {
			delete(s.owners, uid)
		}
		if len(p.Pinned) > 0 {
			s.pinned[uid] = p.Pinned
		} else {
			delete(s.pinned, uid)
		}
		if p.Order > s.orderC {
			s.orderC = p.Order
		}
		s.persistLocked(uid)
	}
	return nil
}
