// Package core provides BitDew's three programming interfaces (paper §3.3):
//
//   - BitDew: create data slots in the virtual data space, put and get
//     content, search and delete data;
//   - ActiveData: attach attributes, schedule and pin data, and react to
//     data life-cycle events through callbacks;
//   - TransferManager: non-blocking concurrent transfers, probing, waiting
//     and barriers.
//
// It also provides Node, the volatile-host runtime that periodically pulls
// the Data Scheduler (the classical Desktop-Grid pull model), synchronizes
// the local cache against the returned set, downloads newly assigned data
// out-of-band and fires life-cycle events.
package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"bitdew/internal/catalog"
	"bitdew/internal/repository"
	"bitdew/internal/rpc"
	"bitdew/internal/scheduler"
	"bitdew/internal/transfer"
)

// Comms bundles typed clients to the four runtime services — the Go
// analogue of the paper's ComWorld.getMultipleComms(host, "RMI", port,
// "dc", "dr", "dt", "ds"). In a distributed setup each service may live on
// a different host; instantiate Comms per pool as the paper recommends.
//
// The request path is batch-first: all four clients share one pipelined
// connection, and CallBatch ships several logical calls — to the same
// service or across services — in a single round trip. The batch APIs
// (BitDew.PutAll / CreateDataBatch / FetchAll, ActiveData.ScheduleAll, the
// Node's delta heartbeat) are built on it; the single-datum APIs are thin
// wrappers over the same path, so prefer the batch forms whenever N > 1
// data move together.
type Comms struct {
	DC *catalog.Client
	DR *repository.Client
	DT *transfer.Client
	DS *scheduler.Client

	client rpc.Client // the one connection all four share
	// upload is the DR's UploadProtocol endpoint, learned by the first put
	// through these Comms and dropped when a put finds it stale.
	upload atomic.Pointer[string]
}

// DefaultCallTimeout bounds every call made over a Connect*-built
// connection. A service host that stops answering without closing the
// connection (kernel keeps the TCP session alive, process is wedged) would
// otherwise block the caller forever — outside the reconnect layer's reach,
// which only sees closed connections. Generous enough for the slowest
// emulated deployment in the experiment suite, including convoyed batches
// behind WithServeLimit.
const DefaultCallTimeout = 2 * time.Minute

// Connect dials the service host at addr over TCP for all four services.
// The connection reconnects itself: when a service host bounces (the
// paper's transient fault model — an administrator restarts it), calls
// failing at the transport level are retried on a fresh connection instead
// of wedging the client, so a node rides through a D* restart. Calls are
// deadline-bounded (DefaultCallTimeout) so a wedged-but-connected host
// surfaces as rpc.ErrDeadline instead of a hang.
func Connect(addr string) (*Comms, error) {
	c, err := rpc.DialAuto(addr, rpc.WithCallTimeout(DefaultCallTimeout))
	if err != nil {
		return nil, fmt.Errorf("core: connect %s: %w", addr, err)
	}
	return commsFrom(c), nil
}

// ConnectWithLatency dials addr injecting a per-call latency, used to
// emulate wide-area deployments from one machine. Reconnects and
// deadline-bounds calls like Connect.
func ConnectWithLatency(addr string, latency time.Duration) (*Comms, error) {
	c, err := rpc.DialAuto(addr, rpc.WithCallLatency(latency), rpc.WithCallTimeout(DefaultCallTimeout))
	if err != nil {
		return nil, fmt.Errorf("core: connect %s: %w", addr, err)
	}
	return commsFrom(c), nil
}

// ConnectLocal attaches to services mounted on an in-process Mux (the
// paper's "local" configuration where a function call replaces the RMI).
func ConnectLocal(m *rpc.Mux) *Comms {
	return commsFrom(rpc.NewLocalClient(m, 0))
}

func commsFrom(c rpc.Client) *Comms {
	return &Comms{
		DC:     catalog.NewClient(c),
		DR:     repository.NewClient(c),
		DT:     transfer.NewClient(c),
		DS:     scheduler.NewClient(c),
		client: c,
	}
}

// CallBatch ships several logical calls — typed-client Call builders such
// as scheduler.Client.ScheduleCall or catalog.Client.DeleteCall — over the
// shared connection in one round trip, preserving per-call errors.
func (c *Comms) CallBatch(calls []*rpc.Call) error {
	return rpc.CallBatch(c.client, calls)
}

// RoundTrips counts the request frames sent over the connection (batched
// calls count one frame regardless of size).
func (c *Comms) RoundTrips() uint64 {
	n, _ := rpc.RoundTrips(c.client)
	return n
}

// Close releases the connection.
func (c *Comms) Close() error { return c.client.Close() }
