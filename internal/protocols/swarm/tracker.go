package swarm

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"bitdew/internal/rpc"
)

// The rpc service names of the tracker and of a peer.
const (
	trackerService = "tracker"
	peerService    = "peer"
)

// callTimeout bounds every call to a tracker or a peer, so a swarm member
// that accepts a connection and never answers cannot hold its caller.
const callTimeout = 10 * time.Second

// member names one peer of one swarm: the argument of Announce, Peers and
// Leave.
type member struct {
	InfoHash string
	PeerAddr string
}

// Tracker coordinates peer discovery per infohash, the way a BitTorrent
// tracker does. Announcing registers the caller and returns the other known
// peers of the swarm.
type Tracker struct {
	srv *rpc.Server

	mu     sync.Mutex
	swarms map[string]map[string]time.Time // infohash -> peerAddr -> lastSeen
	metas  map[string]Metainfo             // infohash -> metainfo
}

// NewTracker starts a tracker on addr.
func NewTracker(addr string) (*Tracker, error) {
	t := &Tracker{
		swarms: make(map[string]map[string]time.Time),
		metas:  make(map[string]Metainfo),
	}
	m := rpc.NewMux()
	t.Mount(m)
	srv, err := rpc.Listen(addr, m)
	if err != nil {
		return nil, fmt.Errorf("swarm: tracker: %w", err)
	}
	t.srv = srv
	return t, nil
}

// Addr returns the tracker's listen address.
func (t *Tracker) Addr() string { return t.srv.Addr() }

// Close stops the tracker.
func (t *Tracker) Close() error { return t.srv.Close() }

// Swarm returns the current peer set of an infohash (for tests/metrics).
func (t *Tracker) Swarm(infohash string) []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []string
	for p := range t.swarms[infohash] {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Mount registers the tracker's Announce, Peers, Leave, SetMeta and GetMeta
// on m as the "tracker" service.
func (t *Tracker) Mount(m *rpc.Mux) {
	rpc.Register(m, trackerService, "Announce", func(a member) ([]string, error) {
		t.mu.Lock()
		defer t.mu.Unlock()
		s := t.swarms[a.InfoHash]
		if s == nil {
			s = make(map[string]time.Time)
			t.swarms[a.InfoHash] = s
		}
		s[a.PeerAddr] = time.Now()
		return t.others(a), nil
	})
	rpc.Register(m, trackerService, "Peers", func(a member) ([]string, error) {
		t.mu.Lock()
		defer t.mu.Unlock()
		return t.others(a), nil
	})
	rpc.Register(m, trackerService, "Leave", func(a member) (struct{}, error) {
		t.mu.Lock()
		delete(t.swarms[a.InfoHash], a.PeerAddr)
		t.mu.Unlock()
		return struct{}{}, nil
	})
	rpc.Register(m, trackerService, "SetMeta", func(meta Metainfo) (struct{}, error) {
		t.mu.Lock()
		t.metas[meta.InfoHash] = meta
		t.mu.Unlock()
		return struct{}{}, nil
	})
	rpc.Register(m, trackerService, "GetMeta", func(infohash string) (Metainfo, error) {
		t.mu.Lock()
		meta, ok := t.metas[infohash]
		t.mu.Unlock()
		if !ok {
			return Metainfo{}, fmt.Errorf("swarm: no metainfo for %s", infohash)
		}
		return meta, nil
	})
}

// others lists, sorted, the peers of a's swarm other than a itself. The
// caller holds t.mu.
func (t *Tracker) others(a member) []string {
	var out []string
	for p := range t.swarms[a.InfoHash] {
		if p != a.PeerAddr {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// FetchMeta retrieves the metainfo registered for infohash at the tracker,
// letting a leecher bootstrap a swarm download from a datum's checksum and
// a tracker address alone (the content of a BitDew Locator).
func FetchMeta(trackerAddr, infohash string) (Metainfo, error) {
	c, err := rpc.Dial(trackerAddr, rpc.WithCallTimeout(callTimeout))
	if err != nil {
		return Metainfo{}, fmt.Errorf("swarm: tracker: %w", err)
	}
	defer c.Close()
	var meta Metainfo
	err = c.Call(trackerService, "GetMeta", infohash, &meta)
	return meta, err
}
