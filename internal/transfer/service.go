package transfer

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"bitdew/internal/data"
	"bitdew/internal/rpc"
)

// ServiceName is the rpc service name of the Data Transfer service.
const ServiceName = "dt"

// State is the life-cycle state of a tracked transfer.
type State int

const (
	// StatePending: registered, not yet moving bytes.
	StatePending State = iota
	// StateActive: bytes are moving.
	StateActive
	// StateComplete: all bytes landed and the receiver verified integrity.
	StateComplete
	// StateFailed: given up after exhausting retries.
	StateFailed
	// StateCancelled: withdrawn by the client.
	StateCancelled
)

func (s State) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateActive:
		return "active"
	case StateComplete:
		return "complete"
	case StateFailed:
		return "failed"
	case StateCancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Record is the DT service's view of one transfer. The receiver host
// reports progress on every monitoring heartbeat — the receiver-driven
// principle: only the receiver can verify size and MD5 of what landed.
type Record struct {
	ID       data.UID
	DataUID  data.UID
	Protocol string
	Host     string // receiving host identifier
	State    State
	Bytes    int64
	Total    int64
	Attempts int
	Started  time.Time
	Updated  time.Time
	Error    string
}

// Service is the Data Transfer service run on a stable host: the registry
// of in-flight transfers, their reliability state and bandwidth accounting.
type Service struct {
	mu        sync.Mutex
	transfers map[data.UID]*Record
	// bytesMoved accumulates completed bytes for bandwidth reporting.
	bytesMoved int64
	// requests counts every DT call, the protocol-overhead figure the
	// paper analyses in §4.3.
	requests int64
}

// NewService returns an empty Data Transfer service.
func NewService() *Service {
	return &Service{transfers: make(map[data.UID]*Record)}
}

// Open registers a new transfer and returns its ID.
func (s *Service) Open(dataUID data.UID, protocol, host string, total int64) data.UID {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.requests++
	id := data.NewUID()
	now := time.Now()
	s.transfers[id] = &Record{
		ID: id, DataUID: dataUID, Protocol: protocol, Host: host,
		State: StatePending, Total: total, Started: now, Updated: now,
	}
	return id
}

// Report updates receiver-observed progress for a transfer.
func (s *Service) Report(id data.UID, bytes int64, state State, errMsg string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.requests++
	r, ok := s.transfers[id]
	if !ok {
		return fmt.Errorf("transfer: unknown transfer %s", id)
	}
	if bytes > r.Bytes && (state == StateComplete) {
		s.bytesMoved += bytes - r.Bytes
	}
	r.Bytes = bytes
	r.State = state
	r.Error = errMsg
	r.Updated = time.Now()
	if state == StateActive && r.Attempts == 0 {
		r.Attempts = 1
	}
	return nil
}

// Retry increments a transfer's attempt counter after a failure-and-resume.
func (s *Service) Retry(id data.UID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.requests++
	r, ok := s.transfers[id]
	if !ok {
		return fmt.Errorf("transfer: unknown transfer %s", id)
	}
	r.Attempts++
	r.State = StateActive
	r.Updated = time.Now()
	return nil
}

// Get returns a transfer record.
func (s *Service) Get(id data.UID) (Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.requests++
	r, ok := s.transfers[id]
	if !ok {
		return Record{}, fmt.Errorf("transfer: unknown transfer %s", id)
	}
	return *r, nil
}

// Active lists transfers still pending or moving, sorted by ID.
func (s *Service) Active() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.requests++
	var out []Record
	for _, r := range s.transfers {
		if r.State == StatePending || r.State == StateActive {
			out = append(out, *r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Stats reports cumulative completed bytes and DT request count.
func (s *Service) Stats() (bytesMoved, requests int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytesMoved, s.requests
}

// Mount registers the DT methods on an rpc Mux under "dt".
func (s *Service) Mount(m *rpc.Mux) {
	rpc.Register(m, ServiceName, "Open", func(a OpenRequest) (data.UID, error) {
		return s.Open(a.DataUID, a.Protocol, a.Host, a.Total), nil
	})
	rpc.Register(m, ServiceName, "Report", func(a reportArgs) (struct{}, error) {
		return struct{}{}, s.Report(a.ID, a.Bytes, a.State, a.Err)
	})
	rpc.Register(m, ServiceName, "Retry", func(id data.UID) (struct{}, error) {
		return struct{}{}, s.Retry(id)
	})
	rpc.Register(m, ServiceName, "Get", func(id data.UID) (Record, error) {
		return s.Get(id)
	})
	rpc.Register(m, ServiceName, "Active", func(struct{}) ([]Record, error) {
		return s.Active(), nil
	})
}

// Client is the typed client of a remote DT service.
type Client struct {
	c rpc.Client
}

// NewClient wraps an rpc client as a DT client.
func NewClient(c rpc.Client) *Client { return &Client{c: c} }

// Open registers a transfer with the DT service.
func (c *Client) Open(dataUID data.UID, protocol, host string, total int64) (data.UID, error) {
	var id data.UID
	err := c.c.Call(ServiceName, "Open", OpenRequest{dataUID, protocol, host, total}, &id)
	return id, err
}

// OpenRequest describes one transfer to register: Open's wire argument, for
// the handler in Mount and for the client.
type OpenRequest struct {
	DataUID  data.UID
	Protocol string
	Host     string
	Total    int64
}

// OpenAll registers N transfers in one batch frame, returning their IDs
// aligned with reqs. A per-call failure leaves a zero UID at its slot (the
// transfer then simply runs unreported, like a nil DT client).
func (c *Client) OpenAll(reqs []OpenRequest) ([]data.UID, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	ids := make([]data.UID, len(reqs))
	calls := make([]*rpc.Call, len(reqs))
	for i, r := range reqs {
		calls[i] = rpc.NewCall(ServiceName, "Open", r, &ids[i])
	}
	//vet:ignore errlost a per-call failure deliberately leaves a zero UID at its slot: that transfer runs unreported, exactly like a nil DT client
	if err := rpc.CallBatch(c.c, calls); err != nil {
		return nil, err
	}
	return ids, nil
}

// Report sends receiver-observed progress.
func (c *Client) Report(id data.UID, bytes int64, state State, errMsg string) error {
	return c.c.Call(ServiceName, "Report", reportArgs{id, bytes, state, errMsg}, nil)
}

// reportArgs is Report's wire argument, for the handler in Mount and for
// the client.
type reportArgs struct {
	ID    data.UID
	Bytes int64
	State State
	Err   string
}

// Retry records a retry attempt.
func (c *Client) Retry(id data.UID) error {
	return c.c.Call(ServiceName, "Retry", id, nil)
}

// Get fetches a transfer record.
func (c *Client) Get(id data.UID) (Record, error) {
	var r Record
	err := c.c.Call(ServiceName, "Get", id, &r)
	return r, err
}

// Active lists in-flight transfers.
func (c *Client) Active() ([]Record, error) {
	var out []Record
	err := c.c.Call(ServiceName, "Active", struct{}{}, &out)
	return out, err
}
