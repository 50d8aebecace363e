// Package scheduler implements BitDew's Data Scheduler service (DS) — the
// component that turns data attributes into transfer orders (paper §3.4.3,
// Algorithm 1).
//
// Reservoir hosts periodically contact the scheduler with the set of data
// held in their local cache (Δk). The scheduler scans its own data set (Θ)
// and answers with a new cache set (Ψk). The host can then safely delete
// obsolete data (Δk \ Ψk), keep the validated cache (Δk ∩ Ψk), and download
// newly assigned data (Ψk \ Δk).
//
// The scheduler also implements fault tolerance: each datum carries a list
// of active owners Ω refreshed at every synchronization, and owners of
// fault-tolerant data that miss heartbeats past the timeout are dropped, so
// the datum's replica count falls below its attribute and it is scheduled
// again to a new host.
package scheduler

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"bitdew/internal/attr"
	"bitdew/internal/data"
	"bitdew/internal/db"
)

// DefaultMaxDataSchedule caps how many new data one synchronization may
// assign (the threshold that stops Algorithm 1's second loop).
const DefaultMaxDataSchedule = 8

// DefaultTimeout is the failure-detection timeout; the paper sets it to
// three heartbeat periods (3 × 1 s in the DSL-Lab experiment of §4.4).
const DefaultTimeout = 3 * time.Second

// ErrNotScheduled is returned by Unschedule for a datum not under management.
var ErrNotScheduled = errors.New("scheduler: datum not scheduled")

// Entry is one datum under management: its meta-information, its attribute
// and internal scheduling state.
type Entry struct {
	Data data.Data
	Attr attr.Attribute
	// scheduledAt anchors the absolute lifetime.
	scheduledAt time.Time
	// order preserves insertion order for deterministic scheduling.
	order int
}

// Assignment is one datum a host must download, with the attribute that
// drove the decision (the host needs the protocol hint and, for events, the
// attribute name) and, when the scheduler could read them, the candidate
// locators to fetch it from (see SetLocate).
type Assignment struct {
	Data     data.Data
	Attr     attr.Attribute
	Locators []data.Locator
}

// SyncResult partitions the scheduler's answer Ψk relative to the host
// cache Δk.
type SyncResult struct {
	// Keep is Δk ∩ Ψk: cached data the host retains.
	Keep []data.UID
	// Drop is Δk \ Ψk: obsolete data the host deletes (firing data-delete
	// life-cycle events).
	Drop []data.UID
	// Fetch is Ψk \ Δk: data newly assigned to the host.
	Fetch []Assignment
}

// SyncDeltaResult is the answer to a delta synchronization: the usual
// Algorithm 1 partition plus the epoch protocol state.
type SyncDeltaResult struct {
	SyncResult
	// Epoch identifies the server-side cache mirror after this sync; the
	// host echoes it on its next delta so both sides agree on the base set.
	Epoch uint64
	// Resync, when true, means the server could not apply the delta (no
	// session, or epoch mismatch after a scheduler restart): the result is
	// empty and the host must repeat the sync with Full=true.
	Resync bool
}

// hostSession mirrors one host's last reported cache so heartbeats can ship
// Δ-sized deltas instead of the full set.
type hostSession struct {
	epoch uint64
	cache map[data.UID]bool
}

// Service is the Data Scheduler. All methods are safe for concurrent use.
type Service struct {
	mu     sync.Mutex
	theta  map[data.UID]*Entry
	orderC int
	// owners is Ω: data UID -> host -> last time ownership was confirmed.
	owners map[data.UID]map[string]time.Time
	// pinned marks (data, host) pairs registered through Pin; a pinned
	// owner never expires and its datum is never dropped from that host.
	pinned map[data.UID]map[string]bool
	// hosts tracks each host's last synchronization.
	hosts map[string]time.Time
	// sessions holds the per-host cache mirrors of the delta-sync protocol.
	sessions map[string]*hostSession
	// store, when set (AttachStore / NewDurable), receives a durable record
	// of every placement change; storeErr latches the first write failure
	// on the heartbeat path.
	store    db.Store
	storeErr error
	// gate, when set (SetRangeGate), restricts the scheduler to the key
	// ranges its shard currently owns in a replicated plane.
	gate func(uid data.UID) error
	// locate, when set (SetLocate), fills a delta heartbeat's assignments.
	locate func(uid data.UID, protocol string) ([]data.Locator, error)

	// MaxDataSchedule caps new assignments per sync.
	MaxDataSchedule int
	// Timeout is the owner-expiry deadline for fault-tolerant data.
	Timeout time.Duration

	// now is the clock, injectable in tests and simulations.
	now func() time.Time
}

// New returns an empty scheduler with default thresholds.
func New() *Service {
	return &Service{
		theta:           make(map[data.UID]*Entry),
		owners:          make(map[data.UID]map[string]time.Time),
		pinned:          make(map[data.UID]map[string]bool),
		hosts:           make(map[string]time.Time),
		sessions:        make(map[string]*hostSession),
		MaxDataSchedule: DefaultMaxDataSchedule,
		Timeout:         DefaultTimeout,
		now:             time.Now,
	}
}

// SetClock replaces the scheduler's clock (simulations drive virtual time).
func (s *Service) SetClock(now func() time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.now = now
}

// Schedule places a datum under management with the given attribute,
// mirroring activeData.schedule(data, attr). Re-scheduling an existing
// datum updates its attribute without resetting ownership.
func (s *Service) Schedule(d data.Data, a attr.Attribute) error {
	a = a.Normalize()
	if err := a.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.gateLocked(d.UID); err != nil {
		return err
	}
	if e, ok := s.theta[d.UID]; ok {
		e.Data = d
		e.Attr = a
		s.persistLocked(d.UID)
		return nil
	}
	s.orderC++
	s.theta[d.UID] = &Entry{Data: d, Attr: a, scheduledAt: s.now(), order: s.orderC}
	s.persistLocked(d.UID)
	return nil
}

// Pin registers a datum as owned by a specific host (activeData.pin): the
// host counts as an owner, never expires, and the datum is always part of
// that host's Ψ.
func (s *Service) Pin(d data.Data, a attr.Attribute, host string) error {
	if err := s.Schedule(d, a); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.addOwnerLocked(d.UID, host)
	if s.pinned[d.UID] == nil {
		s.pinned[d.UID] = make(map[string]bool)
	}
	s.pinned[d.UID][host] = true
	s.persistLocked(d.UID)
	return nil
}

// Unschedule removes a datum from management. Data with a relative
// lifetime bound to it become obsolete at their owners' next sync.
func (s *Service) Unschedule(uid data.UID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.theta[uid]; !ok {
		return fmt.Errorf("%w: %s", ErrNotScheduled, uid)
	}
	delete(s.theta, uid)
	delete(s.owners, uid)
	delete(s.pinned, uid)
	s.persistLocked(uid)
	return nil
}

// Entries returns a snapshot of Θ in insertion order.
func (s *Service) Entries() []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Entry, 0, len(s.theta))
	for _, e := range s.orderedEntriesLocked() {
		out = append(out, *e)
	}
	return out
}

// Owners returns the hosts currently owning uid, sorted-free snapshot.
func (s *Service) Owners(uid data.UID) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.owners[uid]))
	for h := range s.owners[uid] {
		out = append(out, h)
	}
	return out
}

// Hosts returns hosts seen within the failure timeout.
func (s *Service) Hosts() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	var out []string
	for h, seen := range s.hosts {
		if now.Sub(seen) <= s.Timeout {
			out = append(out, h)
		}
	}
	return out
}

// addOwnerLocked records (or refreshes) host's ownership of uid, reporting
// whether the membership changed (a new owner, as opposed to a timestamp
// refresh) — the signal the persistence layer uses to decide what to write.
func (s *Service) addOwnerLocked(uid data.UID, host string) bool {
	m := s.owners[uid]
	if m == nil {
		m = make(map[string]time.Time)
		s.owners[uid] = m
	}
	_, existed := m[host]
	m[host] = s.now()
	return !existed
}

// orderedEntriesLocked returns live entries in insertion order.
func (s *Service) orderedEntriesLocked() []*Entry {
	out := make([]*Entry, 0, len(s.theta))
	for _, e := range s.theta {
		out = append(out, e)
	}
	// Insertion sort by order (sets are small; avoids sort import games).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].order < out[j-1].order; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// aliveLocked reports whether an entry is still live: present in Θ, its
// absolute lifetime (anchored at scheduling) not expired, and its relative
// lifetime reference still in Θ.
func (s *Service) aliveLocked(e *Entry) bool {
	if e.Attr.LifetimeAbs > 0 && s.now().After(e.scheduledAt.Add(e.Attr.LifetimeAbs)) {
		return false
	}
	if ref := e.Attr.LifetimeRel; ref != "" {
		if s.findByRefLocked(ref) == nil {
			return false
		}
	}
	return true
}

// findByRefLocked resolves a data reference (UID, data name or attribute
// name) against Θ.
func (s *Service) findByRefLocked(ref string) *Entry {
	if e, ok := s.theta[data.UID(ref)]; ok {
		return e
	}
	for _, e := range s.theta {
		if e.Data.Name == ref || e.Attr.Name == ref {
			return e
		}
	}
	return nil
}

// expireOwnersLocked implements failure detection: owners of fault-tolerant
// data whose last confirmation is older than the timeout are dropped
// (unless pinned), so the replica count falls and Algorithm 1 reschedules
// the datum. Owners of non-fault-tolerant data are kept: the replica is
// simply unavailable while its host is down (paper §3.2).
func (s *Service) expireOwnersLocked(dirty map[data.UID]bool) {
	now := s.now()
	for uid, e := range s.theta {
		if !e.Attr.FaultTolerant {
			continue
		}
		for host, seen := range s.owners[uid] {
			if s.pinned[uid][host] {
				continue
			}
			if now.Sub(seen) > s.Timeout {
				delete(s.owners[uid], host)
				dirty[uid] = true
			}
		}
	}
	// Prune state of hosts gone quiet: delta-sync cache mirrors (and the
	// last-seen timestamps themselves) would otherwise accumulate forever
	// under churn. Hosts() only reports hosts seen within one Timeout, so
	// dropping >3×Timeout entries is invisible to it; a pruned-but-alive
	// host simply gets one Resync on its next heartbeat and re-establishes
	// its session.
	for host, seen := range s.hosts {
		if now.Sub(seen) > 3*s.Timeout {
			delete(s.sessions, host)
			delete(s.hosts, host)
		}
	}
}

// Sync is Algorithm 1: the reservoir host k reports its cache Δk and
// receives the partitioned new set Ψk.
func (s *Service) Sync(host string, cache []data.UID) SyncResult {
	return s.SyncAs(host, cache, false)
}

// SyncAs is Sync with an explicit host role. A client host (the paper's
// "client hosts ask for storage resources; reservoir hosts offer their
// local storage", §3.1) never receives replica- or broadcast-driven
// assignments — only data whose affinity points at something the client
// already holds (pinned Collectors attracting Results).
func (s *Service) SyncAs(host string, cache []data.UID, clientOnly bool) SyncResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	// A full report supersedes any delta session: drop it so a host mixing
	// the two protocols gets a clean resync on its next delta.
	delete(s.sessions, host)
	inCache := make(map[data.UID]bool, len(cache))
	for _, uid := range cache {
		inCache[uid] = true
	}
	return s.syncLocked(host, inCache, clientOnly)
}

// SetLocate installs the read of a datum's candidate locators over a
// protocol, so the delta heartbeat that assigns a datum also says where to
// fetch it and the host sends no lookup of its own. An assignment whose read
// fails goes out with no locators, and the host looks it up itself.
func (s *Service) SetLocate(locate func(uid data.UID, protocol string) ([]data.Locator, error)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.locate = locate
}

// SyncDelta is the delta heartbeat: instead of reshipping its full cache Δk
// every period, the host sends only the adds and removes since the epoch it
// last acknowledged, and the scheduler replays them onto its mirror of the
// host's cache. Full=true (re)establishes the session with Added as the
// complete cache; an epoch mismatch (scheduler restarted, missed ack)
// returns Resync=true and the host falls back to a full report.
func (s *Service) SyncDelta(host string, epoch uint64, full bool, added, removed []data.UID, clientOnly bool) SyncDeltaResult {
	s.mu.Lock()
	res := s.syncDeltaLocked(host, epoch, full, added, removed, clientOnly)
	locate := s.locate
	s.mu.Unlock()
	// The locate reads other services' state, so it runs outside s.mu.
	if locate != nil {
		for i := range res.Fetch {
			as := &res.Fetch[i]
			if locs, err := locate(as.Data.UID, as.Attr.Protocol); err == nil {
				as.Locators = locs
			}
		}
	}
	return res
}

// syncDeltaLocked is SyncDelta's Algorithm 1 half. Callers hold s.mu.
func (s *Service) syncDeltaLocked(host string, epoch uint64, full bool, added, removed []data.UID, clientOnly bool) SyncDeltaResult {
	sess := s.sessions[host]
	if full {
		sess = &hostSession{cache: make(map[data.UID]bool, len(added))}
		for _, uid := range added {
			sess.cache[uid] = true
		}
		s.sessions[host] = sess
	} else {
		if sess == nil || epoch != sess.epoch {
			return SyncDeltaResult{Resync: true}
		}
		for _, uid := range added {
			sess.cache[uid] = true
		}
		for _, uid := range removed {
			delete(sess.cache, uid)
		}
	}
	sess.epoch++
	return SyncDeltaResult{
		SyncResult: s.syncLocked(host, sess.cache, clientOnly),
		Epoch:      sess.epoch,
	}
}

// syncLocked is the shared body of SyncAs and SyncDelta (Algorithm 1 against
// an explicit cache set, which it only reads). Callers hold s.mu.
func (s *Service) syncLocked(host string, inCache map[data.UID]bool, clientOnly bool) SyncResult {
	s.hosts[host] = s.now()
	// dirty collects the data whose placement membership changed this sync;
	// they are persisted in one pass at the end (timestamp-only refreshes
	// are not persisted — see persistLocked).
	dirty := make(map[data.UID]bool)
	s.expireOwnersLocked(dirty)

	// Ψk is the cache less the dropped plus the assigned: two small sets,
	// where a copy of the cache would cost every heartbeat the cache's size.
	dropped, assigned := make(map[data.UID]bool), make(map[data.UID]bool)
	inPsi := func(uid data.UID) bool { return inCache[uid] && !dropped[uid] || assigned[uid] }
	var result SyncResult

	// Step 1: keep cached data that is still live.
	for uid := range inCache {
		if s.gateLocked(uid) != nil {
			// Not our range: stay non-committal. Reporting Keep (without
			// any ownership bookkeeping) stops a rejoined ex-primary's
			// stale Θ from ordering hosts to delete live data; the range's
			// real owner is the authority on this datum's fate.
			result.Keep = append(result.Keep, uid)
			continue
		}
		e, ok := s.theta[uid]
		if ok && s.aliveLocked(e) {
			result.Keep = append(result.Keep, uid)
			// Confirm ownership. Algorithm 1 refreshes Ω for fault-
			// tolerant data; we also record first-time ownership for
			// non-FT data so replica counting sees the copy, but never
			// refresh its timestamp (its liveness is not tracked).
			if e.Attr.FaultTolerant {
				if s.addOwnerLocked(uid, host) {
					dirty[uid] = true
				}
			} else if _, owned := s.owners[uid][host]; !owned {
				s.addOwnerLocked(uid, host)
				dirty[uid] = true
			}
		} else {
			dropped[uid] = true
			result.Drop = append(result.Drop, uid)
		}
	}

	// Reconcile ownership: if this host is recorded as an owner of a datum
	// it did not report (a failed download, or a host that came back from
	// a crash with an empty cache), withdraw the stale ownership so the
	// replica count reflects reality and the datum can be re-assigned —
	// possibly to this very host in step 2. Pinned ownership is exempt.
	for uid, owners := range s.owners {
		if s.gateLocked(uid) != nil {
			continue // unowned range: leave its replicated state frozen
		}
		if _, owned := owners[host]; owned && !inCache[uid] && !s.pinned[uid][host] {
			delete(owners, host)
			dirty[uid] = true
		}
	}

	// Step 2: assign new data.
	newCount := 0
	entries := s.orderedEntriesLocked()
	for _, e := range entries {
		if newCount >= s.MaxDataSchedule {
			break
		}
		uid := e.Data.UID
		if inCache[uid] || !s.aliveLocked(e) {
			continue
		}
		if s.gateLocked(uid) != nil {
			continue // never assign data from a range this shard lost
		}
		assign := false
		// Affinity: schedule where the referenced datum already is.
		// Affinity is stronger than replica (§3.2): it bypasses the
		// replica count entirely.
		if ref := e.Attr.Affinity; ref != "" {
			if target := s.findByRefLocked(ref); target != nil && inPsi(target.Data.UID) {
				assign = true
			}
		} else if !clientOnly {
			// Replica: -1 broadcasts to every node; otherwise top up to
			// the requested count.
			if e.Attr.WantsBroadcast() || len(s.owners[uid]) < e.Attr.Replica {
				assign = true
			}
		}
		if assign {
			assigned[uid] = true
			s.addOwnerLocked(uid, host)
			dirty[uid] = true
			result.Fetch = append(result.Fetch, Assignment{Data: e.Data, Attr: e.Attr})
			newCount++
		}
	}
	for uid := range dirty {
		s.persistLocked(uid)
	}
	return result
}

// GC removes entries whose lifetime has expired from Θ entirely; the
// runtime calls it periodically so dead data do not accumulate.
func (s *Service) GC() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	removed := 0
	// Repeat until fixpoint: removing a datum may expire relative
	// lifetimes bound to it.
	for {
		var dead []data.UID
		for uid, e := range s.theta {
			if !s.aliveLocked(e) {
				dead = append(dead, uid)
			}
		}
		if len(dead) == 0 {
			return removed
		}
		for _, uid := range dead {
			delete(s.theta, uid)
			delete(s.owners, uid)
			delete(s.pinned, uid)
			s.persistLocked(uid)
			removed++
		}
	}
}
