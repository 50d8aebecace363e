package core

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"bitdew/internal/data"
	"bitdew/internal/repl"
	"bitdew/internal/repository"
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

// NewBitDewSharded builds the API over a service plane, local storage and
// the node's transfer engine.
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
	landed := make([]bool, len(ds))
	err := b.set.retryElastic(func(v *shardView) error {
		groups := v.partition(len(ds), func(i int) data.UID { return ds[i].UID })
		return v.eachShard(groups, func(shard int, c *Comms, idx []int) error {
			part := make([]data.Data, len(idx))
			for j, i := range idx {
				part[j] = regs[i]
			}
			if err := c.DC.RegisterBatch(part); err != nil {
				return fmt.Errorf("bitdew: createData batch of %d on shard %d: %w", len(part), shard, err)
			}
			for _, i := range idx {
				landed[i] = true
			}
			return nil
		})
	})
	if err != nil {
		var undo []data.Data
		for i, ok := range landed {
			if ok {
				undo = append(undo, regs[i])
			}
		}
		// Best-effort: the create already failed and is being reported; a
		// shard that also refuses the delete leaves an orphan slot, which is
		// harmless.
		_ = b.DeleteAll(undo)
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
// bitdew.put(data, file). It is the single-datum wrapper over PutAll: one
// service round trip, as for a whole batch homed on one shard — prefer
// PutAll when several data move together.
func (b *BitDew) Put(d *data.Data, content []byte) error {
	return b.PutAll([]*data.Data{d}, [][]byte{content})
}

// PutAll is the batch-first Put: the data are partitioned onto their home
// shards and each shard runs the one-round-trip batch protocol (uploads
// out-of-band to the shard's repository first, then their DT reports,
// RegisterBatch and AddLocatorBatch in one frame; a slot's first put asks
// for the upload endpoint before) — the shards in parallel, so N shards see
// N-way concurrent distribution of one wave. Each datum's meta-information
// is updated in place.
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
	// The per-shard protocol (upload, register, publish) is put-overwrite
	// idempotent end to end, so a wave caught mid-rebalance simply reruns
	// against the refreshed placement.
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

// putShard runs the batch Put protocol for data homed on one shard: every
// datum uploads out-of-band to the shard's repository, at the endpoint c
// remembers, and then ONE frame carries the uploads' DT reports, registers
// the data whose upload succeeded and publishes their locators. A datum
// whose upload failed is neither registered nor published. The endpoint is
// dropped when it proves stale, and the shard's part reruns once against a
// fresh one: when an upload fails at the transport level (the shard came
// back on a new port, or its range failed over to a successor), or when the
// shard refuses to publish a locator naming it.
func (b *BitDew) putShard(c *Comms, ds []*data.Data) error {
	rerun, err := b.putOnce(c, ds, false)
	if rerun {
		_, err = b.putOnce(c, ds, true)
	}
	return err
}

// putOnce is one pass of putShard, reporting whether to rerun it: on a pass
// that is not the last, a stale upload sends no frame, and its reports wait
// for the rerun's.
func (b *BitDew) putOnce(c *Comms, ds []*data.Data, last bool) (rerun bool, err error) {
	host := c.upload.Load()
	if host == nil {
		loc, err := c.DR.Locator(ds[0].UID, UploadProtocol)
		if err != nil {
			return false, fmt.Errorf("bitdew: putAll: upload endpoint: %w", err)
		}
		host = &loc.Host
		c.upload.Store(host)
	}
	stale := func() bool {
		c.upload.CompareAndSwap(host, nil) // unless a concurrent put learned a fresh one
		return !last
	}
	regs := make([]data.Data, len(ds))
	locs := make([]data.Locator, len(ds))
	handles := make([]*transfer.Handle, len(ds))
	for i, d := range ds {
		regs[i] = *d
		locs[i] = repository.LocatorAt(d.UID, UploadProtocol, *host)
		handles[i] = b.engine.Upload(regs[i], locs[i])
	}
	var errs []error
	landed, transport := 0, false
	for i, h := range handles {
		if err := h.Wait(); err != nil {
			var ne net.Error
			transport = transport || errors.As(err, &ne)
			errs = append(errs, fmt.Errorf("bitdew: put %s: upload: %w", ds[i].Name, err))
			continue
		}
		regs[landed], locs[landed] = regs[i], locs[i]
		landed++
	}
	if transport && stale() {
		return true, nil
	}

	// The one frame: the DT reports, then (a frame's calls run in order) the
	// landed data's registration and locators.
	commit := b.engine.TakeReports(c.DT)
	register, publish := c.DC.RegisterBatchCall(regs[:landed]), c.DC.AddLocatorBatchCall(locs[:landed])
	if landed > 0 {
		commit = append(commit, register, publish)
	}
	if len(commit) > 0 {
		//vet:ignore errlost the DT reports riding in front are monitoring only, so their per-call errors are dropped by design; register's and publish's own Err are checked below
		if err := c.CallBatch(commit); err != nil {
			errs = append(errs, fmt.Errorf("bitdew: putAll: %w", err))
		} else if err := register.Err; err != nil {
			errs = append(errs, fmt.Errorf("bitdew: putAll: register: %w", err))
		} else if err := publish.Err; err != nil {
			// Refused, and not for an ownership move: the locators name
			// another repository, or content this one does not hold.
			rerun = !retryable(err) && stale()
			errs = append(errs, fmt.Errorf("bitdew: putAll: publish locators: %w", err))
		}
	}
	return rerun, errors.Join(errs...)
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
// Its lookup frame carries the DT reports parked for the datum's home shard.
// The transfer's own report leaves within one monitoring period, or in the
// next frame to that shard, not before Wait returns.
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
// parallel, each carrying the shard's parked DT reports in front of its
// calls. Downloads then run concurrently through the engine, each datum
// falling back through its candidate locators; a datum whose *cached*
// candidates all fail retries once with fresh locators from the wire, so a
// stale cache heals instead of stranding the datum.
//
// Once the downloads end, their DT reports leave in one frame to each home
// shard no lookup reached, rather than waiting for the monitoring period (a
// cold shard's wait, like Get's, for the next frame to it). So a FetchAll
// sends each home shard exactly one frame, and deliberately: it is what
// notices a dead owner and gets its range promoted. Parked like a worker
// round's reports, a warm read would cost no frame at all, and a range only
// such reads touch would stay on its dead owner. On a host that also
// heartbeats, the heartbeat or the period may take the reports first and the
// flush sends nothing; the frame that took them reached the home shard after
// the downloads ended all the same.
func (b *BitDew) FetchAll(ds []data.Data, protocol string) error {
	reached, err := b.fetchAll(ds, protocol, func(int, error) {})
	b.engine.Flush(ds, reached...)
	return err
}

// fetchAll is FetchAll with a completion hook: landed is called once per
// datum with its outcome as soon as that is known, from the goroutine that
// fetched it. It sends no DT report of its own downloads: those wait for a
// frame that goes to their shard anyway, or for the monitoring period. It
// returns the DT services its lookup frames reached.
func (b *BitDew) fetchAll(ds []data.Data, protocol string, landed func(i int, err error)) (reached []*transfer.Client, err error) {
	if len(ds) == 0 {
		return nil, nil
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
	reached = b.lookupLocators(ds, protocol, miss, candidates, errs)

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
	return reached, errors.Join(errs...)
}

// lookupLocators fills candidates[i] for every i in miss with the merged
// catalog + repository locators of ds[i], feeding the locator cache, in one
// frame per home shard (homeFrames) behind the shard's parked DT reports, and
// returns the DT services reached. A shard whose frame fails marks only its
// own data's errs slots, exactly like the heartbeat fan-out.
func (b *BitDew) lookupLocators(ds []data.Data, protocol string, miss []int, candidates [][]data.Locator, errs []error) []*transfer.Client {
	if len(miss) == 0 {
		return nil
	}
	return b.set.homeFrames(miss, func(i int) data.UID { return ds[i].UID }, errs, func(shard int, c *Comms, idx []int) {
		uids := make([]data.UID, len(idx))
		for k, i := range idx {
			uids[k] = ds[i].UID
		}
		// The reports are monitoring only, so their per-call errors are dropped.
		var catLocs [][]data.Locator
		var repLocs []data.Locator
		calls := append(b.engine.TakeReports(c.DT),
			c.DC.LocatorsBatchCall(uids, &catLocs),
			c.DR.LocatorAnyBatchCall(uids, protocol, &repLocs))
		err := c.CallBatch(calls)
		if err != nil {
			for _, i := range idx {
				errs[i] = fmt.Errorf("bitdew: fetch %s: shard %d: %w", ds[i].Name, shard, err)
			}
			return
		}
		// Either source may fail independently (a stale catalog, a repository
		// with no endpoints); a datum only errors when it ends up with no
		// candidate at all: the merge is best-effort.
		// A not-owner refusal from the catalog means the whole range moved:
		// keep it as the verdict, to retry, instead of caching an empty answer.
		cat, rep := calls[len(calls)-2], calls[len(calls)-1]
		for k, i := range idx {
			var listed []data.Locator
			var fallback data.Locator
			if cat.Err == nil && k < len(catLocs) {
				listed = catLocs[k]
			}
			if rep.Err == nil && k < len(repLocs) {
				fallback = repLocs[k]
			}
			errs[i], candidates[i] = nil, data.Candidates(listed, fallback, protocol)
			if len(candidates[i]) == 0 && repl.IsNotOwner(cat.Err) {
				errs[i] = cat.Err
				continue
			}
			b.set.cache.put(ds[i].UID, protocol, candidates[i])
		}
	})
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
// relative lifetime on it will expire at their owners' next sync. It is
// DeleteAll of one datum, sent to its home shard without a partition.
func (b *BitDew) DeleteData(d data.Data) error {
	ds, idx, errs := []data.Data{d}, []int{0}, []error{nil}
	_ = b.set.homeCall(d.UID, func(c *Comms) error {
		b.deleteFrame(c, ds, idx, errs)
		return errs[0]
	})
	return b.forgetDeleted(ds, errs)
}

// DeleteAll is DeleteData for many data: one frame per home shard
// (homeFrames), each the shard's parked DT reports in front of one catalog
// delete per datum homed there. Each datum is deleted or refused on its own,
// as by DeleteData, and the error names every refused datum.
func (b *BitDew) DeleteAll(ds []data.Data) error {
	errs := make([]error, len(ds))
	all := make([]int, len(ds))
	for i := range all {
		all[i] = i
	}
	b.set.homeFrames(all, func(i int) data.UID { return ds[i].UID }, errs, func(_ int, c *Comms, idx []int) {
		b.deleteFrame(c, ds, idx, errs)
	})
	return b.forgetDeleted(ds, errs)
}

// deleteFrame deletes ds[i] for every i in idx, all homed on c's shard, in
// one frame behind the shard's parked DT reports, setting errs[i] to each
// delete's outcome. A lone delete with no report to carry goes as a plain
// call: the same frame without a batch envelope.
func (b *BitDew) deleteFrame(c *Comms, ds []data.Data, idx []int, errs []error) {
	if calls := b.engine.TakeReports(c.DT); len(calls) == 0 && len(idx) == 1 {
		errs[idx[0]] = c.DC.Delete(ds[idx[0]].UID)
	} else {
		for _, i := range idx {
			calls = append(calls, c.DC.DeleteCall(ds[i].UID))
		}
		err := c.CallBatch(calls)
		for k, i := range idx {
			if errs[i] = err; err == nil {
				errs[i] = calls[len(calls)-len(idx)+k].Err
			}
		}
	}
}

// forgetDeleted drops the node's own books on each datum deleted (its cached
// locators, its transfers) and its local copy, and returns the refusals,
// each naming its datum.
func (b *BitDew) forgetDeleted(ds []data.Data, errs []error) error {
	for i, d := range ds {
		if errs[i] != nil {
			errs[i] = fmt.Errorf("bitdew: delete %s: %w", d.Name, errs[i])
			continue
		}
		b.set.cache.invalidate(d.UID)
		b.engine.Forget(d.UID)
		errs[i] = b.backend.Delete(string(d.UID))
	}
	return errors.Join(errs...)
}

// Local reports whether the datum's content is in this node's local cache.
func (b *BitDew) Local(d data.Data) bool {
	n, err := b.backend.Size(string(d.UID))
	return err == nil && n == d.Size
}
