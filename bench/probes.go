package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"bitdew/internal/attr"
	"bitdew/internal/core"
	"bitdew/internal/data"
	"bitdew/internal/db"
	"bitdew/internal/dht"
	"bitdew/internal/protocols/ftp"
	"bitdew/internal/protocols/httpx"
	"bitdew/internal/protocols/swarm"
	"bitdew/internal/repository"
	"bitdew/internal/rpc"
	"bitdew/internal/scheduler"
	"bitdew/internal/transfer"
)

// Layer probes: timed calls into each layer's public functions, with the
// workload's payload, catalog size and durability, against the live plane
// (the service clients) or a scratch instance (db, dht, protocols, rpc).
// One rule sets how many calls a probe makes, and the record says how many
// each value rests on: probeCalls, or probeCallsHeavy where a single call
// moves or scans heavyPayload bytes or more.
const (
	probeCalls      = 1000
	probeCallsHeavy = 100
	// replBursts × replBurstPuts puts are timed to convergence on a
	// replicated plane.
	replBursts    = 3
	replBurstPuts = 1000
	replTimeout   = 30 * time.Second
	// rowBytes is about one gob-encoded catalog row.
	rowBytes = 256
)

// calls is how many calls a probe makes when one call handles n bytes. A run
// shorter than runSeconds — a test's — makes proportionally fewer.
func (p *prober) calls(n int) int {
	calls := probeCalls
	if n >= heavyPayload {
		calls = probeCallsHeavy
	}
	return max(calls*p.seconds/runSeconds, 1)
}

// prober runs the probes of one traced run. The first failure sticks and
// turns the remaining probes into no-ops.
type prober struct {
	f       *fixture
	rec     *record
	seconds int    // the run's length
	scratch string // directory for the scratch stores
	err     error
}

// timeIt runs fn and returns how long it took, in seconds.
func timeIt(fn func() error) (float64, error) {
	start := time.Now()
	err := fn()
	return time.Since(start).Seconds(), err
}

// sample calls fn — which returns the seconds it measured — n times,
// records the count under the probe's name and returns the median. A
// failure sticks, named after the probe.
func (p *prober) sample(name string, n int, fn func(i int) (float64, error)) float64 {
	if p.err != nil {
		return 0
	}
	secs := make([]float64, n)
	for i := range secs {
		var err error
		if secs[i], err = fn(i); err != nil {
			p.err = fmt.Errorf("probe %s: %w", name, err)
			return 0
		}
	}
	p.rec.ProbeCalls[name] = n
	return median(secs)
}

// timed samples n calls of fn, each timed as a whole.
func (p *prober) timed(name string, n int, fn func(i int) error) float64 {
	return p.sample(name, n, func(i int) (float64, error) {
		return timeIt(func() error { return fn(i) })
	})
}

// us reports the median time, in microseconds, of fn, whose one call
// handles size bytes, and returns it in seconds.
func (p *prober) us(name string, size int, fn func(i int) error) float64 {
	s := p.timed(name, p.calls(size), fn)
	p.rec.set(name, "us", s*1e6)
	return s
}

// ms is us in milliseconds.
func (p *prober) ms(name string, size int, fn func(i int) error) float64 {
	s := p.timed(name, p.calls(size), fn)
	p.rec.set(name, "ms", s*1e3)
	return s
}

// mbs reports size bytes per median call time as MB/s.
func (p *prober) mbs(name string, size int, fn func(i int) error) {
	p.rec.set(name, "MB/s", float64(size)/1e6/p.timed(name, p.calls(size), fn))
}

// chain holds the probe medians (seconds) the explained ratios add up.
type chain struct {
	call, register, locators, addLocator, locator float64
	upload, download, putLocal, fetchLocal        float64
}

// run runs every layer probe and returns the put and fetch chains.
func (p *prober) run() chain {
	var ch chain
	ch.call = p.rpc()
	ch.register, ch.locators, ch.addLocator = p.catalog()
	ch.locator = p.repository()
	ch.upload, ch.download = p.transfer()
	ch.putLocal, ch.fetchLocal = p.local()
	p.protocols()
	p.scheduler()
	p.db()
	p.repl()
	p.dht()
	return ch
}

// echoMsg is the payload of the scratch rpc service.
type echoMsg struct {
	N   int
	Pad []byte
}

// rpc probes one loopback call, a 64-call batch frame and the allocations
// of a call, on a scratch server. It returns the call's median.
func (p *prober) rpc() float64 {
	if p.err != nil {
		return 0
	}
	mux := rpc.NewMux()
	rpc.Register(mux, "echo", "Echo", func(a echoMsg) (echoMsg, error) { return a, nil })
	srv, err := rpc.Listen("127.0.0.1:0", mux)
	if err != nil {
		p.err = err
		return 0
	}
	defer srv.Close()
	c, err := rpc.Dial(srv.Addr(), rpc.WithCallTimeout(core.DefaultCallTimeout))
	if err != nil {
		p.err = err
		return 0
	}
	defer c.Close()

	msg := echoMsg{Pad: make([]byte, 64)}
	var reply echoMsg
	echo := func(int) error { return c.Call("echo", "Echo", msg, &reply) }
	call := p.us("rpc.call_p50_us", 0, echo)
	replies := make([]echoMsg, 64)
	p.us("rpc.batch64_call_p50_us", 0, func(int) error {
		calls := make([]*rpc.Call, len(replies))
		for j := range calls {
			calls[j] = rpc.NewCall("echo", "Echo", msg, &replies[j])
		}
		if err := rpc.CallBatch(c, calls); err != nil {
			return err
		}
		return rpc.FirstError(calls)
	})

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := p.calls(0)
	for i := 0; i < n && p.err == nil; i++ {
		p.err = echo(i)
	}
	runtime.ReadMemStats(&after)
	p.rec.set("rpc.allocs_per_call", "count", float64(after.Mallocs-before.Mallocs)/float64(n))
	p.rec.ProbeCalls["rpc.allocs_per_call"] = n
	return call
}

// probeDatum puts a fresh datum holding the client's payload buffer, for the
// probes that need a live row of their own; the caller deletes it. It is a
// complete put on purpose: a locator published for content the repository
// never received wedges a replicated shard's outbound stream for good.
func (p *prober) probeDatum(name string) (*data.Data, *core.Comms) {
	c := p.f.clients[0]
	d := data.New(name)
	if p.err == nil {
		if d, p.err = c.bd.CreateData(name); p.err == nil {
			p.err = c.bd.Put(d, c.buf)
		}
	}
	return d, c.set.For(d.UID)
}

// dropDatum deletes a probe datum once the plane has shipped everything
// about it. A replica that comes to pull the content of a datum its primary
// has meanwhile deleted never finishes, and the shard's stream with it.
func (p *prober) dropDatum(d *data.Data) {
	if p.err == nil {
		p.err = p.f.converged()
	}
	if p.err == nil {
		p.err = p.f.clients[0].bd.DeleteData(*d)
	}
}

// catalog probes register, locator lookup, locator publish and the name
// scan on the live plane, and returns the first three medians.
func (p *prober) catalog() (register, locators, addLocator float64) {
	f, c := p.f, p.f.clients[0]
	d, conn := p.probeDatum("probe-catalog")
	register = p.us("catalog.register_p50_us", 0, func(int) error { return conn.DC.Register(*d) })
	locators = p.us("catalog.locators_p50_us", 0, func(i int) error {
		uid := f.pre[i%len(f.pre)].UID
		_, err := c.set.For(uid).DC.Locators(uid)
		return err
	})
	var loc data.Locator
	if p.err == nil {
		loc, p.err = conn.DR.Locator(d.UID, core.UploadProtocol)
	}
	// Publishing the same locator again is what a put into a used slot
	// does: the catalog finds it already listed.
	addLocator = p.us("catalog.add_locator_p50_us", 0, func(int) error { return conn.DC.AddLocator(loc) })

	rows := 0
	if p.err == nil {
		var all []data.Data
		all, p.err = c.bd.AllData()
		rows = len(all)
	}
	search := p.timed("catalog.search_us_per_row", p.calls(rows*rowBytes), func(i int) error {
		_, err := c.bd.SearchData(f.pre[i%len(f.pre)].Name)
		return err
	})
	p.rec.set("catalog.search_us_per_row", "us", search*1e6/float64(max(rows, 1)))
	p.dropDatum(d)
	return register, locators, addLocator
}

// repository probes the locator call on the live plane and the copies of a
// scratch backend of the kind the plane stores content in.
func (p *prober) repository() (locator float64) {
	c := p.f.clients[0]
	uid := p.f.pre[0].UID
	locator = p.us("repository.locator_p50_us", 0, func(int) error {
		_, err := c.set.For(uid).DR.Locator(uid, core.UploadProtocol)
		return err
	})

	var backend repository.Backend = repository.NewMemBackend()
	if p.f.w.durable && p.err == nil {
		backend, p.err = repository.NewDirBackend(filepath.Join(p.scratch, "backend"))
	}
	if p.err != nil {
		return locator
	}
	size := len(c.buf)
	p.mbs("repository.backend_put_mb_s", size, func(i int) error { return backend.Put(fmt.Sprint("ref-", i%8), c.buf) })
	p.mbs("repository.backend_get_mb_s", size, func(i int) error {
		_, err := backend.Get(fmt.Sprint("ref-", i%8))
		return err
	})
	return locator
}

// transfer probes the DT bookkeeping calls and one engine upload and
// download on the live plane, then the same download as a bare httpx get:
// the ratio is the transfer framework's overhead over its protocol (the
// paper's Fig. 3b).
func (p *prober) transfer() (upload, download float64) {
	f, c := p.f, p.f.clients[0]
	d, conn := p.probeDatum("probe-transfer")
	p.us("transfer.open_report_p50_us", 0, func(int) error {
		id, err := conn.DT.Open(d.UID, core.UploadProtocol, "bench-probe", d.Size)
		if err != nil {
			return err
		}
		return conn.DT.Report(id, d.Size, transfer.StateComplete, "")
	})
	var up data.Locator
	if p.err == nil {
		up, p.err = conn.DR.Locator(d.UID, core.UploadProtocol)
	}
	upload = p.ms("transfer.upload_p50_ms", len(c.buf), func(int) error { return c.engine.Upload(*d, up).Wait() })
	p.dropDatum(d)

	// Each preloaded datum's first catalog locator is where a fetch goes.
	locs := make([]data.Locator, len(f.pre))
	for i, d := range f.pre {
		if p.err != nil {
			break
		}
		var all []data.Locator
		if all, p.err = c.set.For(d.UID).DC.Locators(d.UID); p.err == nil && len(all) == 0 {
			p.err = fmt.Errorf("probe transfer: %s has no locator", d.Name)
		}
		if p.err == nil {
			locs[i] = all[0]
		}
	}
	download = p.ms("transfer.download_p50_ms", len(c.buf), func(i int) error {
		d := f.pre[i%len(f.pre)]
		if err := c.backend.Delete(string(d.UID)); err != nil {
			return err
		}
		return c.engine.Download(d, locs[i%len(locs)]).Wait()
	})
	hc := httpx.NewClient()
	var sink bytes.Buffer
	bare := p.sample("transfer.overhead_ratio", p.calls(len(c.buf)), func(i int) (float64, error) {
		loc := locs[i%len(locs)]
		sink.Reset()
		return timeIt(func() error {
			_, err := hc.Get(loc.Host, loc.Ref, 0, &sink)
			return err
		})
	})
	p.rec.set("transfer.overhead_ratio", "ratio", download/bare)
	return upload, download
}

// local probes what a put and a fetch do on the client before and after
// the wire: MD5 plus the local store, and the copy out of it.
func (p *prober) local() (putLocal, fetchLocal float64) {
	c := p.f.clients[0]
	backend := repository.NewMemBackend()
	d := data.New("probe-local")
	putLocal = p.us("core.put_local_p50_us", len(c.buf), func(int) error {
		d = d.WithContent(c.buf)
		return backend.Put(string(d.UID), c.buf)
	})
	fetchLocal = p.us("core.fetch_local_p50_us", len(c.buf), func(int) error {
		_, err := backend.Get(string(d.UID))
		return err
	})
	return putLocal, fetchLocal
}

// protocols probes each out-of-band protocol bare, on scratch servers over
// one backend holding one payload.
func (p *prober) protocols() {
	if p.err != nil {
		return
	}
	payload := p.f.clients[0].buf
	size := len(payload)
	backend := repository.NewMemBackend()
	if p.err = backend.Put("blob", payload); p.err != nil {
		return
	}
	var sink bytes.Buffer

	hs, err := httpx.NewServer(backend, "127.0.0.1:0")
	if err != nil {
		p.err = err
		return
	}
	defer hs.Close()
	hc := httpx.NewClient()
	p.mbs("protocols.http_get_mb_s", size, func(int) error {
		sink.Reset()
		_, err := hc.Get(hs.Addr(), "blob", 0, &sink)
		return err
	})
	p.mbs("protocols.http_put_mb_s", size, func(int) error { return hc.Put(hs.Addr(), "up", bytes.NewReader(payload)) })
	p.us("protocols.http_request_p50_us", 0, func(int) error {
		_, err := hc.Size(hs.Addr(), "blob")
		return err
	})

	fs, err := ftp.NewServer(backend, "127.0.0.1:0")
	if err != nil {
		p.err = err
		return
	}
	defer fs.Close()
	fc, err := ftp.Dial(fs.Addr())
	if err != nil {
		p.err = err
		return
	}
	defer fc.Close()
	p.mbs("protocols.ftp_get_mb_s", size, func(int) error {
		sink.Reset()
		_, err := fc.Retrieve("blob", 0, &sink)
		return err
	})

	tr, err := swarm.NewTracker("127.0.0.1:0")
	if err != nil {
		p.err = err
		return
	}
	defer tr.Close()
	meta := swarm.NewMetainfo("blob", payload, swarm.DefaultPieceSize)
	seeder, err := swarm.NewSeeder(backend, meta, tr.Addr(), "127.0.0.1:0")
	if err != nil {
		p.err = err
		return
	}
	defer seeder.Close()
	p.mbs("protocols.swarm_get_mb_s", size, func(int) error {
		l, err := swarm.NewLeecher(repository.NewMemBackend(), meta, tr.Addr(), "127.0.0.1:0")
		if err != nil {
			return err
		}
		defer l.Close()
		return l.Download(time.Minute)
	})
}

// scheduler probes the schedule order, an idle delta heartbeat and a
// heartbeat that assigns data, on the live plane.
func (p *prober) scheduler() {
	c := p.f.clients[0]
	d, conn := p.probeDatum("probe-sched")
	order := attr.Attribute{Name: "probe", Replica: 1, Protocol: "http"}
	p.us("scheduler.schedule_p50_us", 0, func(int) error { return conn.DS.Schedule(*d, order) })
	p.dropDatum(d)

	// A client-only host is never assigned anything: its heartbeat is the
	// idle one.
	idle := scheduler.SyncDeltaArgs{Host: "bench-probe-idle", Full: true, ClientOnly: true}
	p.us("scheduler.sync_delta_idle_p50_us", 0, func(int) error {
		res, err := conn.DS.SyncDelta(idle)
		if err == nil && res.Resync {
			err = errors.New("scheduler refused the delta heartbeat")
		}
		idle.Full, idle.Epoch = false, res.Epoch
		return err
	})

	// Assignment: schedule a handful of data homed on one shard, then time
	// the heartbeat of a host with an empty cache that is handed them.
	const batch = scheduler.DefaultMaxDataSchedule
	shard := c.set.ShardOf(d.UID)
	var ds []data.Data
	for len(ds) < batch {
		if nd := data.New("probe-assign").WithContent(c.buf); c.set.ShardOf(nd.UID) == shard {
			ds = append(ds, *nd)
		}
	}
	perDatum := p.sample("scheduler.sync_assign_us_per_datum", p.calls(0), func(int) (float64, error) {
		if err := c.ad.ScheduleAll(ds, []attr.Attribute{order}); err != nil {
			return 0, err
		}
		var res scheduler.SyncDeltaResult
		s, err := timeIt(func() (err error) {
			res, err = conn.DS.SyncDelta(scheduler.SyncDeltaArgs{Host: "bench-probe-assign", Full: true})
			return err
		})
		if err == nil && len(res.Fetch) == 0 {
			err = errors.New("scheduler assigned none of the scheduled data")
		}
		for _, d := range ds {
			if uerr := conn.DS.Unschedule(d.UID); uerr != nil && err == nil {
				err = uerr
			}
		}
		return s / float64(max(len(res.Fetch), 1)), err
	})
	p.rec.set("scheduler.sync_assign_us_per_datum", "us", perDatum*1e6)
}

// db probes a put into each kind of store, the WAL's bytes per put and a
// compaction, on scratch stores holding as many rows as the workload's
// catalog.
func (p *prober) db() {
	if p.err != nil {
		return
	}
	rows := p.f.w.preload + numClients*p.f.w.slots
	value := make([]byte, rowBytes)
	fill := func(s db.Store) error {
		for i := 0; i < rows; i++ {
			if err := s.Put("t", fmt.Sprint("k", i), value); err != nil {
				return err
			}
		}
		return nil
	}
	put := func(s db.Store) func(int) error {
		return func(i int) error { return s.Put("t", fmt.Sprint("k", i%rows), value) }
	}

	mem := db.NewRowStore()
	if p.err = fill(mem); p.err != nil {
		return
	}
	p.us("db.mem_put_p50_us", 0, put(mem))

	feed, err := db.NewFeedStore(db.NewRowStore(), 1)
	if err != nil {
		p.err = err
		return
	}
	defer feed.Close()
	if p.err = fill(feed); p.err != nil {
		return
	}
	p.us("db.feed_put_p50_us", 0, put(feed))

	dir := filepath.Join(p.scratch, "db")
	durable, err := db.OpenDurable(dir)
	if err != nil {
		p.err = err
		return
	}
	defer durable.Close()
	if p.err = fill(durable); p.err != nil {
		return
	}
	compact := p.timed("db.compact_ms", p.calls(rows*rowBytes), func(int) error { return durable.Compact() })
	p.rec.set("db.compact_ms", "ms", compact*1e3)
	// The WAL is empty after a compaction and the puts below stay under
	// the compaction threshold, so the file's growth is theirs alone.
	wal := filepath.Join(dir, "wal.gob")
	before, err := os.Stat(wal)
	if err != nil {
		p.err = err
		return
	}
	p.us("db.durable_put_p50_us", 0, put(durable))
	after, err := os.Stat(wal)
	if err != nil {
		p.err = err
		return
	}
	p.rec.set("db.wal_bytes_per_put", "B", float64(after.Size()-before.Size())/float64(durable.WALRecords()))
}

// repl times how long a replicated plane needs to converge after a burst
// of puts; an unreplicated plane has nothing to ship and reports 0.
func (p *prober) repl() {
	f, c := p.f, p.f.clients[0]
	if f.plane.Replicas() < 2 || p.err != nil {
		p.rec.set("repl.catchup_ms_per_1k_puts", "ms", 0)
		return
	}
	names := make([]string, replBurstPuts)
	contents := make([][]byte, replBurstPuts)
	for i := range names {
		names[i] = fmt.Sprint("probe-repl-", i)
		contents[i] = c.buf
	}
	catchup := p.sample("repl.catchup_ms_per_1k_puts", replBursts, func(int) (float64, error) {
		ds, err := c.bd.CreateDataBatch(names)
		if err != nil {
			return 0, err
		}
		if err := c.bd.PutAll(ds, contents); err != nil {
			return 0, err
		}
		s, err := timeIt(func() error { return f.plane.WaitReplicated(replTimeout) })
		for _, d := range ds {
			if derr := c.bd.DeleteData(*d); derr != nil && err == nil {
				err = derr
			}
		}
		return s, err
	})
	p.rec.set("repl.catchup_ms_per_1k_puts", "ms", catchup*1e3)
}

var shardSink int

// dht times the consistent-hash routing decision every call makes.
func (p *prober) dht() {
	if p.err != nil {
		return
	}
	const calls = 200_000
	place := dht.NewPlacement(p.f.w.shards)
	start := time.Now()
	for i := 0; i < calls; i++ {
		shardSink += place.ShardOf(string(p.f.pre[i%len(p.f.pre)].UID))
	}
	p.rec.set("dht.shard_of_ns", "ns", float64(time.Since(start).Nanoseconds())/calls)
	p.rec.ProbeCalls["dht.shard_of_ns"] = calls
}
