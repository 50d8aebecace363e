package bitdew_test

import (
	"fmt"
	"testing"
	"time"

	"bitdew/internal/attr"
	"bitdew/internal/core"
	"bitdew/internal/data"
	"bitdew/internal/rpc"
	"bitdew/internal/runtime"
	"bitdew/internal/scheduler"
)

// ---- Batch-first request path (the round-trip collapse) ----
//
// The paper's evaluation shows throughput bounded by per-datum round trips
// to the D* services. These benchmarks run the same workload through the
// sequential single-datum APIs and the batch APIs over the "RMI remote"
// transport (client-side call latency via rpc.WithCallLatency), reporting
// the round-trip counts alongside wall time.

// remoteLatency emulates the paper's RMI-remote configuration; kept small
// so benchmark iterations stay cheap while still dominating per-call cost.
const remoteLatency = 200 * time.Microsecond

// newRemoteFixture starts a service container over TCP and connects a node
// through a latency-injected client.
func newRemoteFixture(b *testing.B, host string) (*runtime.Container, *core.Comms, *core.Node) {
	b.Helper()
	c, err := runtime.NewContainer(runtime.ContainerConfig{Addr: "127.0.0.1:0", DisableFTP: true, DisableSwarm: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	comms, err := core.ConnectWithLatency(c.Addr(), remoteLatency)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { comms.Close() })
	n, err := core.NewNode(core.NodeConfig{Host: host, Comms: comms, Concurrency: 16})
	if err != nil {
		b.Fatal(err)
	}
	return c, comms, n
}

// BenchmarkPutBatch compares putting 100 data sequentially (4 service
// round trips each, plus per-transfer DT control traffic) against PutAll
// (2 shared round trips plus batched DT control). The round_trips metric
// is the acceptance figure: batch must be ≥5× lower.
func BenchmarkPutBatch(b *testing.B) {
	const n = 100
	mkInputs := func(tag string, iter int) ([]string, [][]byte) {
		names := make([]string, n)
		contents := make([][]byte, n)
		for i := range names {
			names[i] = fmt.Sprintf("%s-%d-%03d", tag, iter, i)
			contents[i] = []byte(names[i])
		}
		return names, contents
	}

	b.Run("sequential", func(b *testing.B) {
		_, comms, node := newRemoteFixture(b, "seq")
		b.ResetTimer()
		var trips uint64
		for iter := 0; iter < b.N; iter++ {
			names, contents := mkInputs("seq", iter)
			base := comms.RoundTrips()
			for i := range names {
				d, err := node.BitDew.CreateData(names[i])
				if err != nil {
					b.Fatal(err)
				}
				if err := node.BitDew.Put(d, contents[i]); err != nil {
					b.Fatal(err)
				}
			}
			trips = comms.RoundTrips() - base
		}
		b.ReportMetric(float64(trips), "round_trips")
	})

	b.Run("batch", func(b *testing.B) {
		_, comms, node := newRemoteFixture(b, "batch")
		b.ResetTimer()
		var trips uint64
		for iter := 0; iter < b.N; iter++ {
			names, contents := mkInputs("batch", iter)
			base := comms.RoundTrips()
			ds, err := node.BitDew.CreateDataBatch(names)
			if err != nil {
				b.Fatal(err)
			}
			if err := node.BitDew.PutAll(ds, contents); err != nil {
				b.Fatal(err)
			}
			trips = comms.RoundTrips() - base
		}
		b.ReportMetric(float64(trips), "round_trips")
	})
}

// BenchmarkSyncDelta compares heartbeat costs for a quiescent host holding
// `cached` data: a full report (SyncDelta with Full) re-encodes the whole
// cache every period, the delta heartbeat ships an empty Δ. Both are one round trip;
// the collapse is in payload (uids_sent) and the encode/scan work behind it.
func BenchmarkSyncDelta(b *testing.B) {
	const cached = 512
	setup := func(b *testing.B) (*scheduler.Client, []data.UID, func()) {
		b.Helper()
		svc := scheduler.New()
		mux := rpc.NewMux()
		svc.Mount(mux)
		srv, err := rpc.Listen("127.0.0.1:0", mux)
		if err != nil {
			b.Fatal(err)
		}
		cli, err := rpc.Dial(srv.Addr(), rpc.WithCallLatency(remoteLatency))
		if err != nil {
			b.Fatal(err)
		}
		uids := make([]data.UID, cached)
		for i := range uids {
			d := data.Data{UID: data.NewUID(), Name: fmt.Sprintf("d%04d", i)}
			uids[i] = d.UID
			if err := svc.Schedule(d, attr.Attribute{Name: "a", Replica: 1}); err != nil {
				b.Fatal(err)
			}
		}
		return scheduler.NewClient(cli), uids, func() { cli.Close(); srv.Close() }
	}

	b.Run("full", func(b *testing.B) {
		client, uids, closeFn := setup(b)
		defer closeFn()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := client.SyncDelta(scheduler.SyncDeltaArgs{Host: "host", Full: true, Added: uids}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(cached, "uids_sent")
	})

	b.Run("delta", func(b *testing.B) {
		client, uids, closeFn := setup(b)
		defer closeFn()
		r, err := client.SyncDelta(scheduler.SyncDeltaArgs{Host: "host", Full: true, Added: uids})
		if err != nil || r.Resync {
			b.Fatalf("establishing session: %+v, %v", r, err)
		}
		epoch := r.Epoch
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r, err := client.SyncDelta(scheduler.SyncDeltaArgs{Host: "host", Epoch: epoch})
			if err != nil || r.Resync {
				b.Fatalf("delta heartbeat: %+v, %v", r, err)
			}
			epoch = r.Epoch
		}
		b.ReportMetric(0, "uids_sent")
	})
}

// BenchmarkScheduleBatch measures submitting 100 schedule orders one call
// at a time versus one multi-call frame (the mw.Master.SubmitAll path).
func BenchmarkScheduleBatch(b *testing.B) {
	const n = 100
	setup := func(b *testing.B) (rpc.Client, *scheduler.Client, func()) {
		b.Helper()
		svc := scheduler.New()
		mux := rpc.NewMux()
		svc.Mount(mux)
		srv, err := rpc.Listen("127.0.0.1:0", mux)
		if err != nil {
			b.Fatal(err)
		}
		cli, err := rpc.Dial(srv.Addr(), rpc.WithCallLatency(remoteLatency))
		if err != nil {
			b.Fatal(err)
		}
		return cli, scheduler.NewClient(cli), func() { cli.Close(); srv.Close() }
	}
	mkData := func(iter int) []data.Data {
		ds := make([]data.Data, n)
		for i := range ds {
			ds[i] = data.Data{UID: data.NewUID(), Name: fmt.Sprintf("s%d-%03d", iter, i)}
		}
		return ds
	}
	a := attr.Attribute{Name: "t", Replica: 1}

	b.Run("sequential", func(b *testing.B) {
		_, client, closeFn := setup(b)
		defer closeFn()
		b.ResetTimer()
		for iter := 0; iter < b.N; iter++ {
			for _, d := range mkData(iter) {
				if err := client.Schedule(d, a); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	b.Run("batch", func(b *testing.B) {
		cli, client, closeFn := setup(b)
		defer closeFn()
		b.ResetTimer()
		for iter := 0; iter < b.N; iter++ {
			ds := mkData(iter)
			calls := make([]*rpc.Call, len(ds))
			for i, d := range ds {
				calls[i] = client.ScheduleCall(d, a)
			}
			if err := rpc.CallBatch(cli, calls); err != nil {
				b.Fatal(err)
			}
			if err := rpc.FirstError(calls); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestBenchPutBatchAcceptance pins the acceptance criterion outside the
// bench harness: 100 data over the latency-injected remote transport, batch
// path ≥5× fewer round trips than sequential.
func TestBenchPutBatchAcceptance(t *testing.T) {
	const n = 100
	fixture := func(host string) (*core.Comms, *core.Node) {
		c, err := runtime.NewContainer(runtime.ContainerConfig{Addr: "127.0.0.1:0", DisableFTP: true, DisableSwarm: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		comms, err := core.ConnectWithLatency(c.Addr(), 50*time.Microsecond)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { comms.Close() })
		node, err := core.NewNode(core.NodeConfig{Host: host, Comms: comms, Concurrency: 16})
		if err != nil {
			t.Fatal(err)
		}
		return comms, node
	}

	seqComms, seqNode := fixture("seq")
	base := seqComms.RoundTrips()
	for i := 0; i < n; i++ {
		d, err := seqNode.BitDew.CreateData(fmt.Sprintf("s%03d", i))
		if err != nil {
			t.Fatal(err)
		}
		if err := seqNode.BitDew.Put(d, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	seqTrips := seqComms.RoundTrips() - base

	batchComms, batchNode := fixture("batch")
	names := make([]string, n)
	contents := make([][]byte, n)
	for i := range names {
		names[i] = fmt.Sprintf("b%03d", i)
		contents[i] = []byte("x")
	}
	base = batchComms.RoundTrips()
	ds, err := batchNode.BitDew.CreateDataBatch(names)
	if err != nil {
		t.Fatal(err)
	}
	if err := batchNode.BitDew.PutAll(ds, contents); err != nil {
		t.Fatal(err)
	}
	batchTrips := batchComms.RoundTrips() - base

	t.Logf("sequential: %d round trips, batch: %d round trips (%.1fx)",
		seqTrips, batchTrips, float64(seqTrips)/float64(batchTrips))
	if batchTrips*5 > seqTrips {
		t.Errorf("batch = %d round trips vs sequential = %d: want ≥5× fewer", batchTrips, seqTrips)
	}
}
