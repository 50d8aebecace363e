// Package catalog implements BitDew's data-indexing services (paper §3.4.1):
//
//   - Service is the centralized Data Catalog (DC) run on a stable service
//     host. It persistently stores data meta-information and the Locators
//     giving remote access to permanent copies, shortening the critical
//     path to a durable copy of each datum.
//   - DDC is the Distributed Data Catalog: the (dataID, hostID) ownership
//     pairs of replicas held by volatile reservoir nodes, published into a
//     DHT so the replica index scales and survives churn without the DC
//     implementing fault detection.
package catalog

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"bitdew/internal/codec"
	"bitdew/internal/data"
	"bitdew/internal/db"
	"bitdew/internal/dht"
	"bitdew/internal/rpc"
)

// ServiceName is the rpc service name of the Data Catalog.
const ServiceName = "dc"

const (
	tableData     = "dc_data"
	tableLocators = "dc_locators"
)

// TableData and TableLocators name the catalog's db.Store tables; the
// replication layer lists them as the gated, UID-keyed tables it protects.
const (
	TableData     = tableData
	TableLocators = tableLocators
)

// ErrNotFound is returned when a datum is absent from the catalog.
var ErrNotFound = errors.New("catalog: data not found")

// Service is the Data Catalog. It is safe for concurrent use; persistence
// is delegated to the configured db.Store, matching the paper's design
// where meta-data is serialised into a SQL database back-end.
type Service struct {
	store   db.Store
	cascade func(uid data.UID, rows []db.Mutation) error // see SetDeleteCascade
	check   func(l data.Locator) error                   // see SetLocatorCheck
}

// NewService builds a Data Catalog over the given persistent store.
func NewService(store db.Store) *Service {
	return &Service{store: store}
}

// Register records a datum (creating its slot in the data space) or updates
// its meta-information after content is attached.
func (s *Service) Register(d data.Data) error {
	if d.UID == "" {
		return fmt.Errorf("catalog: register: datum has no uid")
	}
	raw, err := codec.Marshal(d)
	if err != nil {
		return fmt.Errorf("catalog: encode %s: %w", d.UID, err)
	}
	return s.store.Put(tableData, string(d.UID), raw)
}

// Get retrieves a datum by UID.
func (s *Service) Get(uid data.UID) (data.Data, error) {
	raw, ok, err := s.store.Get(tableData, string(uid))
	if err != nil {
		return data.Data{}, err
	}
	if !ok {
		return data.Data{}, fmt.Errorf("%w: %s", ErrNotFound, uid)
	}
	var d data.Data
	if err := codec.Unmarshal(raw, &d); err != nil {
		return data.Data{}, fmt.Errorf("catalog: decode %s: %w", uid, err)
	}
	return d, nil
}

// SetDeleteCascade installs what a delete takes with it: the service
// container unschedules the datum, writing rows (the catalog's deletions)
// in its batch, and deletes its repository content. Call it before Mount.
func (s *Service) SetDeleteCascade(cascade func(uid data.UID, rows []db.Mutation) error) {
	s.cascade = cascade
}

// SetLocatorCheck installs what a locator must pass to be published: the
// service container refuses one that claims its own repository's copy at
// another endpoint, or a copy that is not there. Call it before Mount.
func (s *Service) SetLocatorCheck(check func(l data.Locator) error) {
	s.check = check
}

// Delete removes a datum and its locators, in one batch with the rows the
// delete cascade adds, then runs the rest of the cascade. A refused batch
// (not the owner, a failing store) leaves everything in place for a retry.
// Deleting an absent datum is not an error (deletion must be idempotent
// under retried client calls).
func (s *Service) Delete(uid data.UID) error {
	rows := make([]db.Mutation, 2, 3) // and room for the cascade's schedule entry
	rows[0] = db.Mutation{Op: 'D', Table: tableData, Key: string(uid)}
	rows[1] = db.Mutation{Op: 'D', Table: tableLocators, Key: string(uid)}
	if s.cascade == nil {
		return s.store.Apply(rows)
	}
	return s.cascade(uid, rows)
}

// SearchByName returns every datum labelled name, sorted by UID. Names are
// not unique, so several data may match (the paper's searchData).
func (s *Service) SearchByName(name string) ([]data.Data, error) {
	return s.scan(func(d *data.Data) bool { return d.Name == name })
}

// SearchByPrefix returns every datum whose name starts with prefix.
func (s *Service) SearchByPrefix(prefix string) ([]data.Data, error) {
	return s.scan(func(d *data.Data) bool { return strings.HasPrefix(d.Name, prefix) })
}

// scan decodes every row of the data table and returns the data match
// accepts, sorted by UID.
func (s *Service) scan(match func(*data.Data) bool) ([]data.Data, error) {
	var out []data.Data
	var scanErr error
	err := s.store.Scan(tableData, func(_ string, raw []byte) bool {
		var d data.Data
		if scanErr = codec.Unmarshal(raw, &d); scanErr != nil {
			return false
		}
		if match(&d) {
			out = append(out, d)
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if scanErr != nil {
		return nil, scanErr
	}
	sort.Slice(out, func(i, j int) bool { return out[i].UID < out[j].UID })
	return out, nil
}

// All returns every registered datum.
func (s *Service) All() ([]data.Data, error) {
	return s.SearchByPrefix("")
}

// RegisterBatch records many data in one call — the batch-first analogue of
// Register for the hot path where a master creates thousands of slots. Every
// datum is attempted (registration is idempotent, so retrying a partially
// failed batch is safe); the per-datum errors are joined.
func (s *Service) RegisterBatch(ds []data.Data) error {
	var errs []error
	for _, d := range ds {
		if err := s.Register(d); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// AddLocatorBatch attaches many locators in one call, delegating each to
// AddLocator (same validation and idempotence), joining per-item errors.
func (s *Service) AddLocatorBatch(ls []data.Locator) error {
	var errs []error
	for _, l := range ls {
		if err := s.AddLocator(l); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// LocatorsBatch returns the locator lists of many data in one call, aligned
// with uids. Data without locators (or unknown to the catalog) yield a nil
// slice, matching Locators' behaviour for an absent entry.
func (s *Service) LocatorsBatch(uids []data.UID) ([][]data.Locator, error) {
	out := make([][]data.Locator, len(uids))
	for i, uid := range uids {
		locs, err := s.Locators(uid)
		if err != nil {
			return nil, err
		}
		out[i] = locs
	}
	return out, nil
}

// AddLocator attaches a locator (remote-access description of a permanent
// copy) to its datum.
func (s *Service) AddLocator(l data.Locator) error {
	if err := l.Validate(); err != nil {
		return err
	}
	if s.check != nil {
		if err := s.check(l); err != nil {
			return err
		}
	}
	// Only presence matters: the datum's row is not decoded.
	if _, ok, err := s.store.Get(tableData, string(l.DataUID)); err != nil {
		return err
	} else if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, l.DataUID)
	}
	var locs []data.Locator
	raw, ok, err := s.store.Get(tableLocators, string(l.DataUID))
	if err != nil {
		return err
	}
	if ok {
		if err := codec.Unmarshal(raw, &locs); err != nil {
			return err
		}
	}
	for _, old := range locs {
		if old == l {
			return nil // idempotent
		}
	}
	locs = append(locs, l)
	enc, err := codec.Marshal(locs)
	if err != nil {
		return err
	}
	return s.store.Put(tableLocators, string(l.DataUID), enc)
}

// Locators returns the locators attached to uid (possibly empty).
func (s *Service) Locators(uid data.UID) ([]data.Locator, error) {
	raw, ok, err := s.store.Get(tableLocators, string(uid))
	if err != nil || !ok {
		return nil, err
	}
	var locs []data.Locator
	if err := codec.Unmarshal(raw, &locs); err != nil {
		return nil, err
	}
	return locs, nil
}

// Mount registers the Data Catalog's methods on an rpc Mux under the "dc"
// service name, making it callable from client and reservoir hosts.
func (s *Service) Mount(m *rpc.Mux) {
	rpc.Register(m, ServiceName, "Register", func(d data.Data) (struct{}, error) {
		return struct{}{}, s.Register(d)
	})
	rpc.Register(m, ServiceName, "Get", func(uid data.UID) (data.Data, error) {
		return s.Get(uid)
	})
	rpc.Register(m, ServiceName, "Delete", func(uid data.UID) (struct{}, error) {
		return struct{}{}, s.Delete(uid)
	})
	rpc.Register(m, ServiceName, "SearchByName", func(name string) ([]data.Data, error) {
		return s.SearchByName(name)
	})
	rpc.Register(m, ServiceName, "AddLocator", func(l data.Locator) (struct{}, error) {
		return struct{}{}, s.AddLocator(l)
	})
	rpc.Register(m, ServiceName, "Locators", func(uid data.UID) ([]data.Locator, error) {
		return s.Locators(uid)
	})
	rpc.Register(m, ServiceName, "All", func(struct{}) ([]data.Data, error) {
		return s.All()
	})
	rpc.Register(m, ServiceName, "RegisterBatch", func(ds []data.Data) (struct{}, error) {
		return struct{}{}, s.RegisterBatch(ds)
	})
	rpc.Register(m, ServiceName, "AddLocatorBatch", func(ls []data.Locator) (struct{}, error) {
		return struct{}{}, s.AddLocatorBatch(ls)
	})
	rpc.Register(m, ServiceName, "LocatorsBatch", func(uids []data.UID) ([][]data.Locator, error) {
		return s.LocatorsBatch(uids)
	})
}

// Client is the typed client of a remote Data Catalog.
type Client struct {
	c rpc.Client
}

// NewClient wraps an rpc client (local or TCP) as a Data Catalog client.
func NewClient(c rpc.Client) *Client { return &Client{c: c} }

// Register records a datum in the remote catalog.
func (c *Client) Register(d data.Data) error {
	return c.c.Call(ServiceName, "Register", d, nil)
}

// Get retrieves a datum by UID.
func (c *Client) Get(uid data.UID) (data.Data, error) {
	var d data.Data
	err := c.c.Call(ServiceName, "Get", uid, &d)
	return d, err
}

// Delete removes a datum.
func (c *Client) Delete(uid data.UID) error {
	return c.c.Call(ServiceName, "Delete", uid, nil)
}

// SearchByName finds data by label.
func (c *Client) SearchByName(name string) ([]data.Data, error) {
	var out []data.Data
	err := c.c.Call(ServiceName, "SearchByName", name, &out)
	return out, err
}

// AddLocator attaches a locator to a datum.
func (c *Client) AddLocator(l data.Locator) error {
	return c.c.Call(ServiceName, "AddLocator", l, nil)
}

// Locators lists the locators of a datum.
func (c *Client) Locators(uid data.UID) ([]data.Locator, error) {
	var out []data.Locator
	err := c.c.Call(ServiceName, "Locators", uid, &out)
	return out, err
}

// All lists every datum known to the catalog.
func (c *Client) All() ([]data.Data, error) {
	var out []data.Data
	err := c.c.Call(ServiceName, "All", struct{}{}, &out)
	return out, err
}

// RegisterBatch records many data in one round trip.
func (c *Client) RegisterBatch(ds []data.Data) error {
	if len(ds) == 0 {
		return nil
	}
	return c.c.Call(ServiceName, "RegisterBatch", ds, nil)
}

// AddLocatorBatch attaches many locators in one round trip.
func (c *Client) AddLocatorBatch(ls []data.Locator) error {
	if len(ls) == 0 {
		return nil
	}
	return c.c.Call(ServiceName, "AddLocatorBatch", ls, nil)
}

// LocatorsBatch lists the locators of many data in one round trip; the
// result is aligned with uids.
func (c *Client) LocatorsBatch(uids []data.UID) ([][]data.Locator, error) {
	if len(uids) == 0 {
		return nil, nil
	}
	var out [][]data.Locator
	err := c.c.Call(ServiceName, "LocatorsBatch", uids, &out)
	return out, err
}

// RegisterBatchCall builds the batchable form of RegisterBatch for a
// cross-service rpc.CallBatch frame.
func (c *Client) RegisterBatchCall(ds []data.Data) *rpc.Call {
	return rpc.NewCall(ServiceName, "RegisterBatch", ds, nil)
}

// AddLocatorBatchCall builds the batchable form of AddLocatorBatch.
func (c *Client) AddLocatorBatchCall(ls []data.Locator) *rpc.Call {
	return rpc.NewCall(ServiceName, "AddLocatorBatch", ls, nil)
}

// LocatorsBatchCall builds the batchable form of LocatorsBatch, decoding
// into reply.
func (c *Client) LocatorsBatchCall(uids []data.UID, reply *[][]data.Locator) *rpc.Call {
	return rpc.NewCall(ServiceName, "LocatorsBatch", uids, reply)
}

// DeleteCall builds a batchable delete for a cross-service rpc.CallBatch
// frame (e.g. catalog delete + scheduler unschedule in one round trip).
func (c *Client) DeleteCall(uid data.UID) *rpc.Call {
	return rpc.NewCall(ServiceName, "Delete", uid, nil)
}

// DDC is the Distributed Data Catalog: replica ownership published through
// a DHT. Each completed transfer to a volatile node inserts a new
// (dataID, hostID) pair (paper §3.4.1).
type DDC struct {
	ring *dht.Ring
}

// NewDDC builds a Distributed Data Catalog over an existing DHT ring.
func NewDDC(ring *dht.Ring) *DDC { return &DDC{ring: ring} }

// Publish records that host owns a replica of uid.
func (d *DDC) Publish(uid data.UID, host string) error {
	return d.ring.Put(string(uid), host)
}

// Owners returns the hosts known to hold a replica of uid.
func (d *DDC) Owners(uid data.UID) ([]string, error) {
	return d.ring.Get(string(uid))
}

// Withdraw removes host from the owner set of uid.
func (d *DDC) Withdraw(uid data.UID, host string) error {
	return d.ring.Remove(string(uid), host)
}

// PublishKV publishes a generic key/value pair; the paper exposes the DHT
// for arbitrary application use beyond replica indexing.
func (d *DDC) PublishKV(key, value string) error { return d.ring.Put(key, value) }

// LookupKV retrieves the values published under a generic key.
func (d *DDC) LookupKV(key string) ([]string, error) { return d.ring.Get(key) }
