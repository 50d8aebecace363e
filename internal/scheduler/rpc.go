package scheduler

import (
	"bitdew/internal/attr"
	"bitdew/internal/data"
	"bitdew/internal/rpc"
)

// ServiceName is the rpc service name of the Data Scheduler.
const ServiceName = "ds"

type scheduleArgs struct {
	Data data.Data
	Attr attr.Attribute
}

type pinArgs struct {
	Data data.Data
	Attr attr.Attribute
	Host string
}

// SyncDeltaArgs is the delta heartbeat's request: the adds and removes to
// the host cache since Epoch, or (Full) a complete cache re-report.
type SyncDeltaArgs struct {
	Host string
	// Epoch is the server epoch the deltas are relative to (ignored when
	// Full is set).
	Epoch uint64
	// Full marks a (re)synchronizing report: Added carries the complete
	// cache and Removed is empty.
	Full           bool
	Added, Removed []data.UID
	ClientOnly     bool
}

// Mount registers the Data Scheduler methods on an rpc Mux under "ds".
func (s *Service) Mount(m *rpc.Mux) {
	rpc.Register(m, ServiceName, "Schedule", func(a scheduleArgs) (struct{}, error) {
		return struct{}{}, s.Schedule(a.Data, a.Attr)
	})
	rpc.Register(m, ServiceName, "Pin", func(a pinArgs) (struct{}, error) {
		return struct{}{}, s.Pin(a.Data, a.Attr, a.Host)
	})
	rpc.Register(m, ServiceName, "Unschedule", func(uid data.UID) (struct{}, error) {
		return struct{}{}, s.Unschedule(uid)
	})
	rpc.Register(m, ServiceName, "SyncDelta", func(a SyncDeltaArgs) (SyncDeltaResult, error) {
		res := s.SyncDelta(a.Host, a.Epoch, a.Full, a.Added, a.Removed, a.ClientOnly)
		// The answer to a delta must not be as large as the cache: the host
		// knows what it holds, and whatever is not in Drop stays.
		res.Keep = nil
		return res, nil
	})
	rpc.Register(m, ServiceName, "Owners", func(uid data.UID) ([]string, error) {
		return s.Owners(uid), nil
	})
	rpc.Register(m, ServiceName, "GC", func(struct{}) (int, error) {
		return s.GC(), nil
	})
}

// Client is the typed client of a remote Data Scheduler.
type Client struct {
	c rpc.Client
}

// NewClient wraps an rpc client as a DS client.
func NewClient(c rpc.Client) *Client { return &Client{c: c} }

// Schedule places a datum under management.
func (c *Client) Schedule(d data.Data, a attr.Attribute) error {
	return c.c.Call(ServiceName, "Schedule", scheduleArgs{Data: d, Attr: a}, nil)
}

// Pin registers a datum as owned by host.
func (c *Client) Pin(d data.Data, a attr.Attribute, host string) error {
	return c.c.Call(ServiceName, "Pin", pinArgs{Data: d, Attr: a, Host: host}, nil)
}

// Unschedule withdraws a datum.
func (c *Client) Unschedule(uid data.UID) error {
	return c.c.Call(ServiceName, "Unschedule", uid, nil)
}

// SyncDelta runs one delta heartbeat (see Service.SyncDelta).
func (c *Client) SyncDelta(a SyncDeltaArgs) (SyncDeltaResult, error) {
	var r SyncDeltaResult
	err := c.c.Call(ServiceName, "SyncDelta", a, &r)
	return r, err
}

// SyncDeltaCall builds a batchable SyncDelta filling *r, so a heartbeat can
// carry other calls to the same shard in its frame.
func (c *Client) SyncDeltaCall(a SyncDeltaArgs, r *SyncDeltaResult) *rpc.Call {
	return rpc.NewCall(ServiceName, "SyncDelta", a, r)
}

// ScheduleCall builds a batchable Schedule for an rpc.CallBatch frame, so a
// master submitting N tasks pays one round trip instead of N.
func (c *Client) ScheduleCall(d data.Data, a attr.Attribute) *rpc.Call {
	return rpc.NewCall(ServiceName, "Schedule", scheduleArgs{Data: d, Attr: a}, nil)
}

// Owners lists the hosts owning uid.
func (c *Client) Owners(uid data.UID) ([]string, error) {
	var out []string
	err := c.c.Call(ServiceName, "Owners", uid, &out)
	return out, err
}

// GC purges expired entries server-side.
func (c *Client) GC() (int, error) {
	var n int
	err := c.c.Call(ServiceName, "GC", struct{}{}, &n)
	return n, err
}
