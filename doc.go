// Package bitdew is a from-scratch Go implementation of BitDew, the
// programmable environment for large-scale data management and
// distribution on Desktop Grids (Fedak, He, Cappello — INRIA RR-6427 /
// SC'08).
//
// The library lives under internal/: the public programming interfaces
// (BitDew, ActiveData, TransferManager) are in internal/core, the runtime
// services (Data Catalog, Data Repository, Data Transfer, Data Scheduler)
// in their own packages, and the back-ends (database engines, transfer
// protocols, DHT) below them. See README.md for the architecture tour,
// DESIGN.md for the system inventory and per-experiment index, and
// EXPERIMENTS.md for paper-versus-measured results.
//
// The request path is batch-first end to end, because the paper's
// evaluation (§4) shows throughput bounded by per-datum service round
// trips. The rpc layer carries many logical calls in one frame
// (rpc.CallBatch); the services expose native batch endpoints (catalog
// RegisterBatch/AddLocatorBatch/LocatorsBatch, repository LocatorBatch,
// scheduler delta synchronization, the DT's report upsert, which a
// transfer engine sends one frame of per service and round); and the core
// APIs build
// on them: prefer BitDew.PutAll, CreateDataBatch, FetchAll,
// ActiveData.ScheduleAll and mw.Master.SubmitAll whenever more than one
// datum moves — N data cost a handful of round trips instead of ~5·N. The
// single-datum calls (Put, CreateData, Fetch, Submit) remain as thin
// wrappers over the same path. Volatile hosts heartbeat the scheduler
// with cache deltas (adds/removes since the last acknowledged epoch)
// rather than reshipping their full cache set every period.
//
// The service plane is durable and restartable, matching the paper's
// database-backed services and its transient fault model for service
// hosts: all D* meta-data persists through db.Store (with
// runtime.ContainerConfig.StateDir, a snapshot+WAL db.DurableStore on
// disk, compacted periodically), clients reconnect through rpc.DialAuto,
// and a killed service host comes back with catalog data, locators and
// scheduler placements intact while delta-syncing nodes reconverge
// through the full-resync fallback. testbed.RunServiceChurn and
// BenchmarkServiceRecovery (recovery_bench_test.go) exercise the cycle.
//
// The benchmarks in bench_test.go regenerate the paper's tables on the
// real components and its figures on the simulated testbeds; the
// cmd/bench-tables binary prints them in the paper's row/column format.
// batch_bench_test.go measures the batch path's round-trip collapse over
// the latency-injected "RMI remote" transport.
package bitdew
