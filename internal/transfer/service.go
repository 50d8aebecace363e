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
// It remembers every transfer still pending or moving, and of the ended ones
// only the last per (datum, receiving host) — what an operator asks about —
// so the registry is bounded by the data in the system, not by its history.
type Service struct {
	mu sync.Mutex
	// live holds the pending and active transfers; ended the terminal records
	// kept, by transfer ID; last names the one kept per (datum, host).
	live  map[data.UID]*Record
	ended map[data.UID]*Record
	last  map[endpoint]data.UID
	// bytesMoved accumulates completed bytes for bandwidth reporting.
	bytesMoved int64
	// requests counts every DT call, the protocol-overhead figure the
	// paper analyses in §4.3.
	requests int64
}

// endpoint is one (datum, receiving host) pair.
type endpoint struct {
	uid  data.UID
	host string
}

// NewService returns an empty Data Transfer service.
func NewService() *Service {
	return &Service{
		live:  make(map[data.UID]*Record),
		ended: make(map[data.UID]*Record),
		last:  make(map[endpoint]data.UID),
	}
}

// reportArgs is Report's wire argument: receiver-observed progress under a
// transfer ID the client minted, with the transfer's registration riding
// along, so the first report a service sees of a transfer registers it — a
// transfer that ends inside one monitoring period is one message, not three.
type reportArgs struct {
	ID    data.UID
	Bytes int64
	State State
	Err   string

	// The registration. Empty on a bare progress update (Client.Report),
	// which then only applies to a transfer the service already knows.
	DataUID  data.UID
	Protocol string
	Host     string
	Total    int64
	Attempts int
}

// Report upserts receiver-observed progress: it registers a transfer it has
// not seen (when the report carries the registration), updates one in flight
// and files one that ended. A report for a transfer already filed is ignored:
// a sample that lost a race against the terminal report must not revive it.
func (s *Service) Report(a reportArgs) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.requests++
	now := time.Now()
	r, ok := s.live[a.ID]
	if !ok {
		if s.ended[a.ID] != nil {
			return nil
		}
		if a.DataUID == "" {
			return fmt.Errorf("transfer: unknown transfer %s", a.ID)
		}
		r = &Record{
			ID: a.ID, DataUID: a.DataUID, Protocol: a.Protocol, Host: a.Host,
			Total: a.Total, Started: now,
		}
		s.live[a.ID] = r
	}
	r.Bytes, r.State, r.Error, r.Updated = a.Bytes, a.State, a.Err, now
	r.Attempts = max(r.Attempts, a.Attempts)
	if a.State == StatePending || a.State == StateActive {
		return nil
	}
	if a.State == StateComplete {
		s.bytesMoved += a.Bytes
	}
	// Terminal: file it in place of the endpoint's previous transfer.
	delete(s.live, a.ID)
	at := endpoint{r.DataUID, r.Host}
	delete(s.ended, s.last[at])
	s.last[at], s.ended[a.ID] = a.ID, r
	return nil
}

// Get returns a transfer record.
func (s *Service) Get(id data.UID) (Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.requests++
	r, ok := s.live[id]
	if !ok {
		r, ok = s.ended[id]
	}
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
	out := make([]Record, 0, len(s.live))
	for _, r := range s.live {
		out = append(out, *r)
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
	rpc.Register(m, ServiceName, "Report", func(a reportArgs) (struct{}, error) {
		return struct{}{}, s.Report(a)
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

// Open registers a transfer with the DT service under an ID minted here: one
// pending report.
func (c *Client) Open(dataUID data.UID, protocol, host string, total int64) (data.UID, error) {
	id := data.NewUID()
	err := c.c.Call(ServiceName, "Report", reportArgs{
		ID: id, State: StatePending, DataUID: dataUID, Protocol: protocol, Host: host, Total: total,
	}, nil)
	return id, err
}

// Report sends receiver-observed progress of a transfer the service knows.
func (c *Client) Report(id data.UID, bytes int64, state State, errMsg string) error {
	return c.c.Call(ServiceName, "Report", reportArgs{ID: id, Bytes: bytes, State: state, Err: errMsg}, nil)
}

// reportAll ships reports in one batch frame, returning the frame's error or
// the first report the service refused.
func (c *Client) reportAll(reports []reportArgs) error {
	calls := reportCalls(reports)
	if err := rpc.CallBatch(c.c, calls); err != nil {
		return err
	}
	return rpc.FirstError(calls)
}

// reportCalls builds the batchable form of reports, one call each.
func reportCalls(reports []reportArgs) []*rpc.Call {
	calls := make([]*rpc.Call, len(reports))
	for i := range reports {
		calls[i] = rpc.NewCall(ServiceName, "Report", reports[i], nil)
	}
	return calls
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
