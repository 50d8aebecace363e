package core

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"bitdew/internal/data"
	"bitdew/internal/repl"
	"bitdew/internal/repository"
	"bitdew/internal/rpc"
	"bitdew/internal/transfer"
)

// UploadProtocol is the protocol used by Put to push content to the Data
// Repository. Distribution to other nodes then follows each datum's own
// transfer-protocol attribute.
const UploadProtocol = "http"

// BitDew is the data-space API: it aggregates the storage resources of the
// system and virtualizes them as a unique space where data are stored
// (the Tuple-Space heritage the paper cites). Create a slot, put content
// into it, get content out of it, search by name.
//
// The API is shard-aware: over a sharded service plane (ConnectSharded)
// every datum homes on one shard by consistent hash of its UID, single-datum
// calls route to that shard, and the batch calls (PutAll, FetchAll,
// CreateDataBatch) partition their inputs per shard and run the per-shard
// frames in parallel. Over a single service host the routing degenerates to
// the plain batch-first path.
type BitDew struct {
	set     *ShardSet
	backend repository.Backend
	engine  *transfer.Engine
	host    string
}

// NewBitDew builds the API over one service connection, local storage and
// the node's transfer engine.
func NewBitDew(comms *Comms, backend repository.Backend, engine *transfer.Engine, host string) *BitDew {
	return NewBitDewSharded(NewShardSet(comms), backend, engine, host)
}

// NewBitDewSharded is NewBitDew over a sharded service plane.
func NewBitDewSharded(set *ShardSet, backend repository.Backend, engine *transfer.Engine, host string) *BitDew {
	return &BitDew{set: set, backend: backend, engine: engine, host: host}
}

// CreateData creates an empty slot in the data space. It is the single-slot
// wrapper over CreateDataBatch.
func (b *BitDew) CreateData(name string) (*data.Data, error) {
	ds, err := b.CreateDataBatch([]string{name})
	if err != nil {
		return nil, err
	}
	return ds[0], nil
}

// CreateDataBatch creates one empty slot per name in a single catalog round
// trip per shard: the new UIDs are partitioned onto their home shards and
// each shard gets one RegisterBatch, the frames running in parallel. On a
// partial failure the registrations that DID land are deleted again
// (best-effort) before the error returns — a retry mints fresh UIDs, so
// half-registered slots from a failed batch must not linger in the
// surviving shards' catalogs as unreachable orphans.
func (b *BitDew) CreateDataBatch(names []string) ([]*data.Data, error) {
	ds := make([]*data.Data, len(names))
	regs := make([]data.Data, len(names))
	for i, name := range names {
		ds[i] = data.New(name)
		regs[i] = *ds[i]
	}
	// Registration is put-overwrite idempotent, so the whole fan-out can
	// rerun when an elastic rebalance moves a UID mid-batch; the rollback
	// only happens once the retries are exhausted or the failure is real.
	var registered map[int][]*Comms // index -> connections that registered it
	err := b.set.retryElastic(func(v *shardView) error {
		groups := v.partition(len(ds), func(i int) data.UID { return ds[i].UID })
		var mu sync.Mutex
		return v.eachShard(groups, func(shard int, c *Comms, idx []int) error {
			part := make([]data.Data, len(idx))
			for j, i := range idx {
				part[j] = regs[i]
			}
			if err := c.DC.RegisterBatch(part); err != nil {
				return fmt.Errorf("bitdew: createData batch of %d on shard %d: %w", len(part), shard, err)
			}
			mu.Lock()
			if registered == nil {
				registered = make(map[int][]*Comms)
			}
			for _, i := range idx {
				registered[i] = append(registered[i], c)
			}
			mu.Unlock()
			return nil
		})
	})
	if err != nil {
		// Best-effort rollback everywhere a registration landed (a retried
		// batch may have registered a UID on its old and new home).
		rollback := make(map[*Comms][]*rpc.Call)
		for i, conns := range registered {
			for _, c := range conns {
				rollback[c] = append(rollback[c], c.DC.DeleteCall(ds[i].UID))
			}
		}
		for c, calls := range rollback {
			//vet:ignore errlost rollback is best-effort: the create already failed and is being reported; a shard that also fails the delete leaves an orphan slot, which is harmless
			c.CallBatch(calls)
		}
		return nil, err
	}
	return ds, nil
}

// CreateDataFromBytes creates a slot whose meta-information (size, MD5) is
// computed from content. The content stays local until Put.
func (b *BitDew) CreateDataFromBytes(name string, content []byte) (*data.Data, error) {
	d := data.NewFromBytes(name, content)
	if err := b.backend.Put(string(d.UID), content); err != nil {
		return nil, err
	}
	err := b.set.homeCall(d.UID, func(c *Comms) error { return c.DC.Register(*d) })
	if err != nil {
		return nil, fmt.Errorf("bitdew: createData %s: %w", name, err)
	}
	return d, nil
}

// CreateDataFromFile creates a slot from a local file, streaming it into
// local storage and fingerprinting it in the same pass.
func (b *BitDew) CreateDataFromFile(path string) (*data.Data, error) {
	d := data.New(filepath.Base(path))
	if err := b.storeFile(d, path); err != nil {
		return nil, err
	}
	err := b.set.homeCall(d.UID, func(c *Comms) error { return c.DC.Register(*d) })
	if err != nil {
		return nil, fmt.Errorf("bitdew: createData %s: %w", path, err)
	}
	return d, nil
}

// storeFile streams the file at path into d's local ref and records its
// size and MD5 in d, reading the file once.
func (b *BitDew) storeFile(d *data.Data, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("bitdew: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return fmt.Errorf("bitdew: %w", err)
	}
	w, err := repository.OpenWriter(b.backend, string(d.UID), 0, st.Size())
	if err != nil {
		return err
	}
	defer w.Close()
	sum := data.NewChecksum()
	n, err := io.Copy(w, io.TeeReader(f, sum))
	if err != nil {
		return fmt.Errorf("bitdew: storing %s: %w", path, err)
	}
	if err := w.Commit(); err != nil {
		return err
	}
	d.Size, d.Checksum = n, data.ChecksumOf(sum)
	return nil
}

// Put copies content into the datum's slot: local storage, upload to the
// Data Repository, and catalog registration of meta-information and
// locator. It blocks until the permanent copy is safe, mirroring
// bitdew.put(data, file). It is the single-datum wrapper over PutAll: two
// service round trips, as for a whole batch homed on one shard — prefer
// PutAll when several data move together.
func (b *BitDew) Put(d *data.Data, content []byte) error {
	return b.PutAll([]*data.Data{d}, [][]byte{content})
}

// PutAll is the batch-first Put: the data are partitioned onto their home
// shards and each shard runs the two-round-trip batch protocol
// (RegisterBatch + LocatorBatch in one frame, uploads out-of-band, their DT
// reports + AddLocatorBatch in the second) — the per-shard frames in
// parallel, so N shards see N-way concurrent distribution of one wave. Each
// datum's meta-information is updated in place.
func (b *BitDew) PutAll(ds []*data.Data, contents [][]byte) error {
	if len(ds) != len(contents) {
		return fmt.Errorf("bitdew: putAll: %d data but %d contents", len(ds), len(contents))
	}
	if len(ds) == 0 {
		return nil
	}
	for i, d := range ds {
		*d = *d.WithContent(contents[i])
		if err := b.backend.Put(string(d.UID), contents[i]); err != nil {
			return err
		}
	}
	return b.putStored(ds)
}

// putStored is PutAll for data whose content is in local storage and whose
// meta-information describes it.
func (b *BitDew) putStored(ds []*data.Data) error {
	// The per-shard protocol (register, locators, upload, publish) is
	// put-overwrite idempotent end to end, so a wave caught mid-rebalance
	// simply reruns against the refreshed placement.
	return b.set.retryElastic(func(v *shardView) error {
		groups := v.partition(len(ds), func(i int) data.UID { return ds[i].UID })
		return v.eachShard(groups, func(shard int, c *Comms, idx []int) error {
			part := make([]*data.Data, len(idx))
			for j, i := range idx {
				part[j] = ds[i]
			}
			return b.putShard(c, part)
		})
	})
}

// putShard runs the batch Put protocol for data homed on one shard.
func (b *BitDew) putShard(c *Comms, ds []*data.Data) error {
	regs := make([]data.Data, len(ds))
	uids := make([]data.UID, len(ds))
	for i, d := range ds {
		regs[i] = *d
		uids[i] = d.UID
	}

	// Round trip 1: register meta-information and ask for upload locators,
	// batched across the dc and dr services in one frame.
	var locs []data.Locator
	calls := []*rpc.Call{
		c.DC.RegisterBatchCall(regs),
		c.DR.LocatorBatchCall(uids, UploadProtocol, &locs),
	}
	if err := c.CallBatch(calls); err != nil {
		return fmt.Errorf("bitdew: putAll: %w", err)
	}
	if err := calls[0].Err; err != nil {
		return fmt.Errorf("bitdew: putAll: register: %w", err)
	}
	if err := calls[1].Err; err != nil {
		return fmt.Errorf("bitdew: putAll: locators: %w", err)
	}
	if len(locs) != len(ds) {
		return fmt.Errorf("bitdew: putAll: repository issued %d locators for %d data", len(locs), len(ds))
	}
	for i, loc := range locs {
		if loc == (data.Locator{}) {
			return fmt.Errorf("bitdew: put %s: locator: protocol %q not served", ds[i].Name, UploadProtocol)
		}
	}

	// Uploads go out-of-band, concurrently, bounded by the engine, which
	// parks their DT reports for the frame below.
	handles := make([]*transfer.Handle, len(regs))
	for i := range regs {
		handles[i] = b.engine.Upload(regs[i], locs[i])
	}
	var errs []error
	for i, h := range handles {
		if err := h.Wait(); err != nil {
			errs = append(errs, fmt.Errorf("bitdew: put %s: upload: %w", ds[i].Name, err))
		}
	}

	// Round trip 2: the uploads' DT reports and, behind them (a frame's calls
	// run in order), every locator published at once. After a failed upload
	// the reports go out alone and nothing is published.
	commit := b.engine.TakeReports(c.DT)
	publish := c.DC.AddLocatorBatchCall(locs)
	if len(errs) == 0 {
		commit = append(commit, publish)
	}
	//vet:ignore errlost the DT reports riding in front are monitoring only, so their per-call errors are dropped by design; the publish call's own Err is checked below
	err := c.CallBatch(commit)
	if len(errs) > 0 {
		return errors.Join(errs...)
	}
	if err == nil {
		err = publish.Err
	}
	if err != nil {
		return fmt.Errorf("bitdew: putAll: publish locators: %w", err)
	}
	return nil
}

// PutFile is Put streaming content from a local file.
func (b *BitDew) PutFile(d *data.Data, path string) error {
	if err := b.storeFile(d, path); err != nil {
		return err
	}
	return b.putStored([]*data.Data{d})
}

// Get starts fetching the datum's content from the data space into local
// storage and returns a transfer handle; block on it with the
// TransferManager (transferManager.waitFor(data) in the paper's Listing 2).
// The transfer's DT report leaves within one monitoring period, or in the
// next frame to the datum's home shard, not before Wait returns.
func (b *BitDew) Get(d data.Data) (*transfer.Handle, error) {
	locs, err := b.freshLocators(d, "")
	if err != nil {
		return nil, err
	}
	return b.engine.Download(d, locs[0]), nil
}

// GetBytes is a blocking Get returning the verified content. It tries
// every known locator in turn (catalog-registered first, then a fresh
// repository locator), so stale catalog entries — e.g. a service host that
// came back on a new endpoint after a transient failure — do not strand
// the datum. The result is the local copy the download landed in, read-only
// under the Backend's Get contract: copy it before writing it.
func (b *BitDew) GetBytes(d data.Data) ([]byte, error) {
	if err := b.Fetch(d, ""); err != nil {
		return nil, err
	}
	return b.backend.Get(string(d.UID))
}

// Fetch downloads d into local storage, trying each candidate locator
// until one succeeds. It is the single-datum wrapper over FetchAll.
func (b *BitDew) Fetch(d data.Data, protocol string) error {
	return b.FetchAll([]data.Data{d}, protocol)
}

// FetchAll downloads many data into local storage. Candidate locators come
// from the client-side locator cache when a previous lookup filled it —
// those data never touch the wire — and otherwise from one locator round
// trip per home shard (the catalog's locator lists and the repository's
// fallback locators share a multi-call frame), the per-shard frames in
// parallel. Downloads then run concurrently through the engine, each datum
// falling back through its candidate locators; a datum whose *cached*
// candidates all fail retries once with fresh locators from the wire, so a
// stale cache heals instead of stranding the datum.
//
// Once the downloads end, their DT reports leave in one frame per home shard
// rather than waiting for the monitoring period. That frame is deliberate: it
// is the only one a warm-cache read sends the datum's home shard, so it is
// what notices a dead owner and gets its range promoted. Parked like a worker
// round's reports, a warm read costs no frame at all, and a range only such
// reads touch stays on its dead owner. On a host that also heartbeats, the
// heartbeat or the period may take the reports first and the flush sends
// nothing; the frame that took them reached the home shard after the
// downloads ended all the same.
func (b *BitDew) FetchAll(ds []data.Data, protocol string) error {
	err := b.fetchAll(ds, protocol, func(int, error) {})
	b.engine.Flush(ds)
	return err
}

// fetchAll is FetchAll with a completion hook: landed is called once per
// datum with its outcome as soon as that is known, from the goroutine that
// fetched it. It sends no DT report: those wait for a frame that goes to
// their shard anyway, or for the monitoring period.
func (b *BitDew) fetchAll(ds []data.Data, protocol string, landed func(i int, err error)) error {
	if len(ds) == 0 {
		return nil
	}
	candidates := make([][]data.Locator, len(ds))
	fromCache := make([]bool, len(ds))
	var miss []int
	for i, d := range ds {
		if locs, ok := b.set.cache.get(d.UID, protocol); ok {
			candidates[i] = locs
			fromCache[i] = true
			continue
		}
		miss = append(miss, i)
	}
	errs := make([]error, len(ds))
	b.lookupLocators(ds, protocol, miss, candidates, errs)

	var wg sync.WaitGroup
	for i, d := range ds {
		locs := candidates[i]
		if errs[i] == nil && len(locs) == 0 {
			errs[i] = fmt.Errorf("bitdew: no locator for %s", d.Name)
		}
		if errs[i] != nil {
			// Also when the datum's home shard refused the lookup frame (e.g.
			// the shard is down): only ITS data fail — the rest of the batch
			// still fetches.
			landed(i, errs[i])
			continue
		}
		first := b.engine.Download(d, locs[0])
		wg.Add(1)
		go func(i int, d data.Data) {
			defer wg.Done()
			err := b.download(d, first, locs[1:])
			if err != nil && fromCache[i] {
				// The cached locators all failed: drop them and retry once
				// against fresh ones from the service plane.
				b.set.cache.invalidate(d.UID)
				if fresh, ferr := b.freshLocators(d, protocol); ferr == nil {
					err = b.download(d, b.engine.Download(d, fresh[0]), fresh[1:])
				}
			}
			errs[i] = err
			landed(i, err)
		}(i, d)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// lookupLocators fills candidates[i] for every i in miss with the merged
// catalog + repository locators of ds[i], one multi-call frame per home
// shard (frames in parallel), feeding the results into the locator cache.
// A shard whose frame fails outright marks only its own data's errs slots
// — shards fail independently, exactly like the heartbeat fan-out. Data
// refused as not-owner (their range moved mid-lookup) are retried through
// retryElastic, recomputing the pending set each pass so only the moved data
// go back to the wire.
func (b *BitDew) lookupLocators(ds []data.Data, protocol string, miss []int, candidates [][]data.Locator, errs []error) {
	pending := miss
	// The verdict per datum is in errs; the loop's own error only says that
	// some data were still refused when the retry budget ran out.
	_ = b.set.retryElastic(func(v *shardView) error {
		pending = b.lookupLocatorsOnce(v, ds, protocol, pending, candidates, errs)
		if len(pending) > 0 {
			return repl.ErrNotOwner
		}
		return nil
	})
}

// lookupLocatorsOnce runs one lookup pass over view v and returns the miss
// entries that failed with a not-owner handoff.
func (b *BitDew) lookupLocatorsOnce(v *shardView, ds []data.Data, protocol string, miss []int, candidates [][]data.Locator, errs []error) []int {
	if len(miss) == 0 {
		return nil
	}
	var (
		mu    sync.Mutex
		retry []int
	)
	groups := v.partition(len(miss), func(j int) data.UID { return ds[miss[j]].UID })
	v.eachShard(groups, func(shard int, c *Comms, idx []int) error {
		uids := make([]data.UID, len(idx))
		for k, j := range idx {
			uids[k] = ds[miss[j]].UID
		}

		// One frame: catalog locator lists + repository fallbacks.
		var catLocs [][]data.Locator
		var repLocs []data.Locator
		calls := []*rpc.Call{
			c.DC.LocatorsBatchCall(uids, &catLocs),
			c.DR.LocatorAnyBatchCall(uids, protocol, &repLocs),
		}
		if err := c.CallBatch(calls); err != nil {
			for _, j := range idx {
				errs[miss[j]] = fmt.Errorf("bitdew: fetch %s: shard %d: %w", ds[miss[j]].Name, shard, err)
			}
			return nil
		}
		// Either source may fail independently (a stale catalog, a repository
		// with no endpoints); a datum only errors when it ends up with no
		// candidate at all: the merge is best-effort.
		// A not-owner refusal from the catalog means the whole range moved:
		// mark those data retryable instead of caching an empty answer.
		notOwner := repl.IsNotOwner(calls[0].Err)
		for k, j := range idx {
			var cat []data.Locator
			var fallback data.Locator
			if calls[0].Err == nil && k < len(catLocs) {
				cat = catLocs[k]
			}
			if calls[1].Err == nil && k < len(repLocs) {
				fallback = repLocs[k]
			}
			out := data.Candidates(cat, fallback, protocol)
			i := miss[j]
			errs[i] = nil
			candidates[i] = out
			if notOwner && len(out) == 0 {
				mu.Lock()
				retry = append(retry, j)
				mu.Unlock()
				continue
			}
			b.set.cache.put(ds[i].UID, protocol, out)
		}
		return nil
	})
	out := make([]int, len(retry))
	for i, j := range retry {
		out[i] = miss[j]
	}
	return out
}

// download waits for d's transfer h and, while that fails, tries the rest of
// the candidate locators in turn.
func (b *BitDew) download(d data.Data, h *transfer.Handle, rest []data.Locator) error {
	err := h.Wait()
	for i := 0; err != nil && i < len(rest); i++ {
		err = b.engine.Download(d, rest[i]).Wait()
	}
	if err != nil {
		return fmt.Errorf("bitdew: fetching %s: all %d locators failed: %w", d.Name, 1+len(rest), err)
	}
	return nil
}

// GetFile is a blocking Get writing the content to a local file.
func (b *BitDew) GetFile(d data.Data, path string) error {
	if err := b.Fetch(d, ""); err != nil {
		return err
	}
	content, _, err := repository.OpenReader(b.backend, string(d.UID))
	if err != nil {
		return err
	}
	defer content.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, content); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// freshLocators looks up d's candidate sources on the wire, in preference
// order (see lookupLocators), erroring when there is none. It deliberately
// does NOT read the locator cache: Get hands out a single transfer handle
// with no fallback chain, so it must see live endpoints every time — a
// cached-but-dead locator would strand the datum with nothing downstream to
// invalidate and retry — and FetchAll calls it exactly when the cached
// candidates all failed. The lookup still FEEDS the cache.
func (b *BitDew) freshLocators(d data.Data, protocol string) ([]data.Locator, error) {
	locs := make([][]data.Locator, 1)
	errs := make([]error, 1)
	b.lookupLocators([]data.Data{d}, protocol, []int{0}, locs, errs)
	if errs[0] == nil && len(locs[0]) == 0 {
		errs[0] = fmt.Errorf("bitdew: no locator for %s", d.Name)
	}
	return locs[0], errs[0]
}

// SearchData finds data in the catalog by name; when several match, they
// are returned in stable UID order. Over a sharded plane the query fans out
// to every shard's catalog and the answers merge.
func (b *BitDew) SearchData(name string) ([]data.Data, error) {
	return b.fanOutSearch(func(c *Comms) ([]data.Data, error) {
		return c.DC.SearchByName(name)
	})
}

// AllData lists every datum registered in the catalog (all shards).
func (b *BitDew) AllData() ([]data.Data, error) {
	return b.fanOutSearch(func(c *Comms) ([]data.Data, error) {
		return c.DC.All()
	})
}

// fanOutSearch runs a catalog query against every shard in parallel and
// merges the answers in stable UID order. On an unreplicated plane a datum
// lives on exactly one shard, so the merge never deduplicates. Shards fail
// independently here too: while the plane is degraded the merged answer is
// the SURVIVORS' view — their data stay searchable and fetchable, which is
// the whole point of the blast-radius design — and the query only errors
// when every shard refused it.
//
// The query runs once per physical shard (v.hosts: a shard serving several
// ranges would answer with its whole gated view per slot queried), and the
// merge dedupes by UID as a second line of defense against owner moves
// mid-query.
func (b *BitDew) fanOutSearch(query func(*Comms) ([]data.Data, error)) ([]data.Data, error) {
	v := b.set.currentView()
	if len(v.slots) == 1 {
		return query(v.slots[0])
	}
	slots := v.hosts()
	parts := make([][]data.Data, len(slots))
	errs := make([]error, len(slots))
	var wg sync.WaitGroup
	for j, i := range slots {
		wg.Add(1)
		go func(j, i int) {
			defer wg.Done()
			parts[j], errs[j] = query(v.slots[i])
		}(j, i)
	}
	wg.Wait()
	failed := 0
	for _, err := range errs {
		if err != nil {
			failed++
		}
	}
	if failed == len(slots) {
		return nil, errors.Join(errs...)
	}
	var out []data.Data
	for _, p := range parts {
		out = append(out, p...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].UID < out[j].UID })
	// A query racing an owner move, or a reshape commit's garbage
	// collection, can see a datum on both its old and new home.
	return dedupeByUID(out), nil
}

// dedupeByUID collapses adjacent duplicates in a UID-sorted slice.
func dedupeByUID(in []data.Data) []data.Data {
	out := in[:0]
	for i, d := range in {
		if i == 0 || d.UID != in[i-1].UID {
			out = append(out, d)
		}
	}
	return out
}

// SearchDataFirst returns the single match for name, erroring on none.
func (b *BitDew) SearchDataFirst(name string) (data.Data, error) {
	found, err := b.SearchData(name)
	if err != nil {
		return data.Data{}, err
	}
	if len(found) == 0 {
		return data.Data{}, fmt.Errorf("bitdew: no data named %q", name)
	}
	return found[0], nil
}

// DeleteData removes the datum everywhere the node can reach: catalog
// (with locators), scheduler, repository and local cache. One frame to the
// datum's home shard does the first three: its catalog delete takes the
// schedule entry and the content with it, and only once the catalog rows
// are gone — a refused delete leaves the datum fully intact for a retry.
// Followers drop their copies as the delete replicates. Data holding a
// relative lifetime on it will expire at their owners' next sync.
func (b *BitDew) DeleteData(d data.Data) error {
	err := b.set.homeCall(d.UID, func(c *Comms) error { return c.DC.Delete(d.UID) })
	if err != nil {
		return err
	}
	b.set.cache.invalidate(d.UID)
	b.engine.Forget(d.UID)
	return b.backend.Delete(string(d.UID))
}

// Local reports whether the datum's content is in this node's local cache.
func (b *BitDew) Local(d data.Data) bool {
	n, err := b.backend.Size(string(d.UID))
	return err == nil && n == d.Size
}
