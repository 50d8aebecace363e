package repository

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"bitdew/internal/data"
	"bitdew/internal/db"
	"bitdew/internal/rpc"
)

// ServiceName is the rpc service name of the Data Repository.
const ServiceName = "dr"

// ErrProtocolNotServed marks a locator request for a protocol this
// repository has no endpoint for — the one locator failure batch callers
// may treat as "skip this slot" rather than a real fault.
var ErrProtocolNotServed = errors.New("repository: protocol not served")

// Service is the Data Repository: persistent storage for permanent copies,
// plus the mapping from transfer-protocol names to the endpoints serving
// this storage. Protocol servers (ftp, http, bittorrent seeders) are
// started around the same Backend and registered here; the DR then answers
// "how do I fetch / where do I store datum X over protocol P" with a
// Locator (paper §3.4.2).
type Service struct {
	backend Backend

	mu        sync.RWMutex
	endpoints map[string]string // protocol -> host:port
	// store, when set, receives a durable copy of the endpoint table, so a
	// restarted repository still knows where its content is served before
	// (or without) the protocol servers re-registering.
	store db.Store
	// locatorHook, when set, runs before a locator is issued; the service
	// container uses it to lazily start protocol servers that need
	// per-datum state (e.g. a swarm seeder for "bittorrent").
	locatorHook func(uid data.UID, protocol string) error
}

// tableEndpoints is the db.Store table mapping protocol names to endpoint
// addresses.
const tableEndpoints = "dr_endpoints"

// NewService wraps a storage backend as a Data Repository.
func NewService(backend Backend) *Service {
	return &Service{backend: backend, endpoints: make(map[string]string)}
}

// NewDurableService is NewService with the endpoint table backed by store:
// previously persisted endpoints are recovered (protocol servers that
// re-register on restart simply overwrite their row), and registrations are
// written through.
func NewDurableService(backend Backend, store db.Store) (*Service, error) {
	s := NewService(backend)
	err := store.Scan(tableEndpoints, func(protocol string, addr []byte) bool {
		s.endpoints[protocol] = string(addr)
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("repository: recover endpoints: %w", err)
	}
	s.store = store
	return s, nil
}

// Backend exposes the repository's storage to co-located protocol servers.
func (s *Service) Backend() Backend { return s.backend }

// RegisterEndpoint announces that protocol is served at addr for this
// repository's content. On a durable repository the registration is
// persisted (best-effort: an endpoint is re-announced on every start, so a
// lost write heals at the next restart).
func (s *Service) RegisterEndpoint(protocol, addr string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.endpoints[protocol] = addr
	if s.store != nil {
		_ = s.store.Put(tableEndpoints, protocol, []byte(addr))
	}
}

// Protocols lists the protocols this repository serves, sorted.
func (s *Service) Protocols() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.endpoints))
	for p := range s.endpoints {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Endpoints returns a copy of the protocol → host:port endpoint table.
func (s *Service) Endpoints() map[string]string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]string, len(s.endpoints))
	for p, addr := range s.endpoints {
		out[p] = addr
	}
	return out
}

// SetLocatorHook installs a callback invoked before each locator is issued.
func (s *Service) SetLocatorHook(fn func(uid data.UID, protocol string) error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.locatorHook = fn
}

// LocatorAt is the locator of uid's content in a repository serving protocol
// at host. The ref is the data UID: protocol servers address repository
// content by UID.
func LocatorAt(uid data.UID, protocol, host string) data.Locator {
	return data.Locator{DataUID: uid, Protocol: protocol, Host: host, Ref: string(uid)}
}

// Locator builds the remote-access description for uid over protocol.
func (s *Service) Locator(uid data.UID, protocol string) (data.Locator, error) {
	s.mu.RLock()
	addr, ok := s.endpoints[protocol]
	hook := s.locatorHook
	s.mu.RUnlock()
	if !ok {
		return data.Locator{}, fmt.Errorf("%w: %q (have %v)", ErrProtocolNotServed, protocol, s.Protocols())
	}
	if hook != nil {
		if err := hook(uid, protocol); err != nil {
			return data.Locator{}, err
		}
	}
	return LocatorAt(uid, protocol, addr), nil
}

// LocatorAny returns a locator over the preferred protocol when served,
// otherwise over any served protocol (deterministically the first sorted).
func (s *Service) LocatorAny(uid data.UID, preferred string) (data.Locator, error) {
	if preferred != "" {
		if l, err := s.Locator(uid, preferred); err == nil {
			return l, nil
		}
	}
	protos := s.Protocols()
	if len(protos) == 0 {
		return data.Locator{}, fmt.Errorf("%w: no protocol endpoints registered", ErrProtocolNotServed)
	}
	return s.Locator(uid, protos[0])
}

// LocatorAnyBatch issues locators for many data in one call, aligned with
// uids: each slot gets a locator over the preferred protocol when served,
// otherwise over any served protocol, or the zero Locator when none.
func (s *Service) LocatorAnyBatch(uids []data.UID, preferred string) ([]data.Locator, error) {
	out := make([]data.Locator, len(uids))
	for i, uid := range uids {
		if l, err := s.LocatorAny(uid, preferred); err == nil {
			out[i] = l
		}
	}
	return out, nil
}

// Has reports whether the repository stores content for uid.
func (s *Service) Has(uid data.UID) bool {
	_, err := s.backend.Size(string(uid))
	return err == nil
}

// CheckLocator refuses a locator that claims this repository's copy of its
// datum (one of its protocols, the datum's own ref) unless it names the
// endpoint serving that protocol now and the content is here. Any other
// locator passes.
func (s *Service) CheckLocator(l data.Locator) error {
	s.mu.RLock()
	addr, ok := s.endpoints[l.Protocol]
	s.mu.RUnlock()
	switch {
	case !ok || l.Ref != string(l.DataUID):
		return nil
	case l.Host != addr:
		return fmt.Errorf("repository: locator %s: this repository serves %s at %s", l, l.Protocol, addr)
	case !s.Has(l.DataUID):
		return fmt.Errorf("repository: locator %s: no such content here", l)
	}
	return nil
}

// Mount registers the Data Repository methods on an rpc Mux under "dr".
func (s *Service) Mount(m *rpc.Mux) {
	rpc.Register(m, ServiceName, "Locator", func(a locatorArgs) (data.Locator, error) {
		return s.Locator(a.UID, a.Protocol)
	})
	rpc.Register(m, ServiceName, "LocatorAny", func(a locatorArgs) (data.Locator, error) {
		return s.LocatorAny(a.UID, a.Protocol)
	})
	rpc.Register(m, ServiceName, "LocatorAnyBatch", func(a locatorBatchArgs) ([]data.Locator, error) {
		return s.LocatorAnyBatch(a.UIDs, a.Protocol)
	})
	rpc.Register(m, ServiceName, "Protocols", func(struct{}) ([]string, error) {
		return s.Protocols(), nil
	})
	rpc.Register(m, ServiceName, "Has", func(uid data.UID) (bool, error) {
		return s.Has(uid), nil
	})
}

// Client is the typed client of a remote Data Repository.
type Client struct {
	c rpc.Client
}

// NewClient wraps an rpc client as a Data Repository client.
func NewClient(c rpc.Client) *Client { return &Client{c: c} }

// locatorArgs is the wire argument of Locator and LocatorAny, shared by
// the Mount handlers and the client methods.
type locatorArgs struct {
	UID      data.UID
	Protocol string
}

// Locator asks the DR for a locator of uid over protocol.
func (c *Client) Locator(uid data.UID, protocol string) (data.Locator, error) {
	var l data.Locator
	err := c.c.Call(ServiceName, "Locator", locatorArgs{UID: uid, Protocol: protocol}, &l)
	return l, err
}

// LocatorAny asks for a locator over the preferred protocol, falling back
// to any protocol the DR serves.
func (c *Client) LocatorAny(uid data.UID, preferred string) (data.Locator, error) {
	var l data.Locator
	err := c.c.Call(ServiceName, "LocatorAny", locatorArgs{UID: uid, Protocol: preferred}, &l)
	return l, err
}

// locatorBatchArgs is the wire argument of the batch locator endpoint,
// shared by the Mount handlers and the client methods.
type locatorBatchArgs struct {
	UIDs     []data.UID
	Protocol string
}

// LocatorAnyBatchCall builds the batchable form of LocatorAnyBatch.
func (c *Client) LocatorAnyBatchCall(uids []data.UID, preferred string, reply *[]data.Locator) *rpc.Call {
	return rpc.NewCall(ServiceName, "LocatorAnyBatch", locatorBatchArgs{uids, preferred}, reply)
}

// LocatorAnyBatch asks for locators with per-datum protocol fallback, in
// one round trip.
func (c *Client) LocatorAnyBatch(uids []data.UID, preferred string) ([]data.Locator, error) {
	if len(uids) == 0 {
		return nil, nil
	}
	var out []data.Locator
	err := c.c.Call(ServiceName, "LocatorAnyBatch", locatorBatchArgs{uids, preferred}, &out)
	return out, err
}

// Protocols lists the DR's served protocols.
func (c *Client) Protocols() ([]string, error) {
	var out []string
	err := c.c.Call(ServiceName, "Protocols", struct{}{}, &out)
	return out, err
}

// Has reports whether the DR stores uid's content.
func (c *Client) Has(uid data.UID) (bool, error) {
	var ok bool
	err := c.c.Call(ServiceName, "Has", uid, &ok)
	return ok, err
}
