package scheduler

import (
	"fmt"
	"time"

	"bitdew/internal/attr"
	"bitdew/internal/codec"
	"bitdew/internal/data"
	"bitdew/internal/db"
)

// tableEntries is the db.Store table holding one record per scheduled datum.
const tableEntries = "ds_entries"

// TableEntries names the scheduler's persistence table; the replication
// layer ships it and rebuilds live state from it at promotion (AdoptRows).
const TableEntries = tableEntries

// persistedEntry is the durable image of one datum under management: the
// Θ entry itself plus its placement state (Ω owners and pins). Host
// sessions — the delta-sync cache mirrors and their epochs — are
// deliberately NOT persisted: after a restart every host's first delta
// heartbeat gets Resync=true and re-establishes its session with a full
// report, which is the protocol's designed recovery path and avoids
// trusting mirrors that may have drifted while the service was down.
type persistedEntry struct {
	Data        data.Data
	Attr        attr.Attribute
	ScheduledAt time.Time
	Order       int
	Owners      map[string]time.Time
	Pinned      map[string]bool
}

// NewDurable returns a scheduler whose placement state is backed by store:
// previously persisted entries are recovered, and every subsequent
// placement change is written through, so a service restart loses no
// scheduled datum (paper §3.4–3.5, where all D* meta-data lives in the
// relational back-end).
func NewDurable(store db.Store) (*Service, error) {
	s := New()
	if err := s.AttachStore(store); err != nil {
		return nil, err
	}
	return s, nil
}

// AttachStore recovers any persisted scheduler state from store and makes
// the scheduler write placement changes through to it from now on. It must
// be called before the scheduler starts serving.
func (s *Service) AttachStore(store db.Store) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var scanErr error
	err := store.Scan(tableEntries, func(key string, raw []byte) bool {
		var p persistedEntry
		if err := codec.Unmarshal(raw, &p); err != nil {
			scanErr = fmt.Errorf("scheduler: recover %s: %w", key, err)
			return false
		}
		uid := data.UID(key)
		s.theta[uid] = &Entry{Data: p.Data, Attr: p.Attr, scheduledAt: p.ScheduledAt, order: p.Order}
		if len(p.Owners) > 0 {
			s.owners[uid] = s.heardNow(p.Owners)
		}
		if len(p.Pinned) > 0 {
			s.pinned[uid] = p.Pinned
		}
		if p.Order > s.orderC {
			s.orderC = p.Order
		}
		return true
	})
	if err != nil {
		return fmt.Errorf("scheduler: recover: %w", err)
	}
	if scanErr != nil {
		return scanErr
	}
	s.store = store
	return nil
}

// heardNow restamps recovered or adopted owners as heard from now. Their
// persisted timestamps date from the placement (refreshes are not
// persisted, see persistLocked), and this scheduler was not listening in
// between: its silence is no evidence that an owner died. Without the
// restamp the first sync of ANY host after a restart, a failover or a
// reshape expires every owner older than Timeout, and a replica-1 datum is
// handed to whoever syncs before its real holder re-confirms. A host that
// really died expires one Timeout after the recovery instead.
func (s *Service) heardNow(owners map[string]time.Time) map[string]time.Time {
	now := s.now()
	for host := range owners {
		owners[host] = now
	}
	return owners
}

// StoreErr returns the first persistence failure seen on the heartbeat
// path (where errors cannot be returned to the remote host), or nil.
func (s *Service) StoreErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.storeErr
}

// persistLocked writes, as one batch, the durable record of each uid — or
// its deletion when the datum left Θ. Owner-timestamp refreshes are
// persisted only together with a membership change (see syncLocked's dirty
// set): persisting every refresh would cost one write per owned datum per
// heartbeat, and recovery restamps the owners anyway (heardNow).
func (s *Service) persistLocked(uids ...data.UID) {
	if s.store == nil || len(uids) == 0 {
		return
	}
	batch := s.rows[:0]
	for _, uid := range uids {
		e, ok := s.theta[uid]
		if !ok {
			batch = append(batch, db.Mutation{Op: 'D', Table: tableEntries, Key: string(uid)})
			continue
		}
		raw, err := codec.Marshal(persistedEntry{
			Data:        e.Data,
			Attr:        e.Attr,
			ScheduledAt: e.scheduledAt,
			Order:       e.order,
			Owners:      s.owners[uid],
			Pinned:      s.pinned[uid],
		})
		if err != nil {
			s.keepErr(fmt.Errorf("scheduler: persist %s: %w", uid, err))
			continue
		}
		batch = append(batch, db.Mutation{Op: 'P', Table: tableEntries, Key: string(uid), Value: raw})
	}
	s.keepErr(s.store.Apply(batch))
	clear(batch)
	s.rows = batch[:0]
}

// keepErr records the first persistence failure for StoreErr.
func (s *Service) keepErr(err error) {
	if s.storeErr == nil {
		s.storeErr = err
	}
}
