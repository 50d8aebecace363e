package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"bitdew/internal/attr"
	"bitdew/internal/data"
)

// placeTimeout bounds how long a place steps the workers before it counts
// as failed; a healthy place lands in milliseconds.
const placeTimeout = 30 * time.Second

// result is the outcome of one op. A failed op reports no latency.
type result struct {
	latency time.Duration
	bytes   int64 // verified payload bytes moved
	err     error
	// syncRounds is the number of SyncWait steps a place took.
	syncRounds int
}

// stamp overwrites the head of buf so that its content is unique to
// (client, stamp, index) yet reproducible from the op sequence.
func stamp(buf []byte, client int, s uint64, index int) {
	var head [16]byte
	binary.LittleEndian.PutUint64(head[0:8], s)
	binary.LittleEndian.PutUint32(head[8:12], uint32(client))
	binary.LittleEndian.PutUint32(head[12:16], uint32(index))
	copy(buf, head[:])
}

var opSpanNames = [numKinds]string{"op.put", "op.fetch", "op.search", "op.place"}

// do issues one generated op through internal/core's public API and checks
// its result byte for byte.
func (f *fixture) do(c *client, o op) result {
	id := f.tr.begin(opSpanNames[o.kind])
	defer f.tr.end(id)
	switch o.kind {
	case opPut:
		return f.put(c, o)
	case opFetch:
		return f.fetch(c, o)
	case opSearch:
		return f.search(c, o)
	default:
		return f.place(c, o)
	}
}

// put refills one slot of the client's ring — local copy, catalog
// register, repository upload, locator publish — then reads the content
// back from the home shard's repository.
func (f *fixture) put(c *client, o op) result {
	slot := c.slots[o.target]
	stamp(c.buf, c.id, o.stamp, 0)

	start := time.Now()
	id := f.tr.begin("core.Put")
	err := c.bd.Put(slot, c.buf)
	f.tr.end(id)
	lat := time.Since(start)
	if err != nil {
		return result{err: err}
	}
	if err := f.checkStored(c, slot.UID, c.buf); err != nil {
		return result{err: err}
	}
	return result{latency: lat, bytes: int64(len(c.buf))}
}

// checkStored compares what the plane's repository holds for uid with want.
func (f *fixture) checkStored(c *client, uid data.UID, want []byte) error {
	home := c.set.OwnerOf(c.set.ShardOf(uid))
	got, err := f.plane.Shard(home).DR.Backend().Get(string(uid))
	if err != nil {
		return fmt.Errorf("put %s: reading back from shard %d: %w", uid, home, err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("put %s: shard %d stores %d bytes that differ from the %d put", uid, home, len(got), len(want))
	}
	return nil
}

// fetch downloads a preloaded datum. The local copy of an earlier fetch is
// dropped first: the http receiver skips content it already holds, and a
// fetch that moves no bytes is not what a caller waits for.
func (f *fixture) fetch(c *client, o op) result {
	d := f.pre[o.target]
	if err := c.backend.Delete(string(d.UID)); err != nil {
		return result{err: err}
	}

	start := time.Now()
	id := f.tr.begin("core.GetBytes")
	got, err := c.bd.GetBytes(d)
	f.tr.end(id)
	lat := time.Since(start)
	if err != nil {
		return result{err: err}
	}
	if !bytes.Equal(got, f.content[o.target]) {
		return result{err: fmt.Errorf("fetch %s: %d bytes that differ from the %d preloaded", d.Name, len(got), len(f.content[o.target]))}
	}
	return result{latency: lat, bytes: int64(len(got))}
}

// search looks a preloaded datum up by name on every shard.
func (f *fixture) search(c *client, o op) result {
	d := f.pre[o.target]

	start := time.Now()
	id := f.tr.begin("core.SearchData")
	found, err := c.bd.SearchData(d.Name)
	f.tr.end(id)
	lat := time.Since(start)
	if err != nil {
		return result{err: err}
	}
	for _, g := range found {
		if g.UID == d.UID {
			return result{latency: lat}
		}
	}
	return result{err: fmt.Errorf("search %s: %d results, none is %s", d.Name, len(found), d.UID)}
}

// placed is one place's data, waiting to be deleted.
type placed struct {
	at time.Time
	ds []*data.Data
}

// place distributes one group: create and fill the data, then — the timed
// part — order their placement and step the workers, one SyncWait(1) at a
// time and never on a ticker, until every wanted replica sits on a worker
// with the right bytes. The data are deleted afterwards — right away, or
// once the workload's deleteAfter has passed — so that catalog, scheduler
// and worker caches stay bounded.
func (f *fixture) place(c *client, o op) (res result) {
	w := f.w
	c.places++
	names := make([]string, 0, w.group+1)
	contents := make([][]byte, 0, w.group+1)
	attrs := make([]attr.Attribute, 0, w.group+1)
	want := make([]int, 0, w.group+1) // replicas wanted per datum
	if w.bcast > 0 {
		stamp(c.bcastBuf, c.id, o.stamp, -1)
		names = append(names, fmt.Sprintf("bcast-%d", c.places))
		contents = append(contents, c.bcastBuf)
		attrs = append(attrs, attr.Attribute{Name: "bcast", Replica: attr.ReplicaAll, FaultTolerant: true, Protocol: "http"})
		want = append(want, len(f.workers))
	}
	for g := 0; g < w.group; g++ {
		stamp(c.placeBufs[g], c.id, o.stamp, g)
		names = append(names, fmt.Sprintf("task-%d-%03d", c.places, g))
		contents = append(contents, c.placeBufs[g])
		attrs = append(attrs, attr.Attribute{Name: "task", Replica: w.replica, FaultTolerant: true, Protocol: "http"})
		want = append(want, min(w.replica, len(f.workers)))
	}

	id := f.tr.begin("core.CreateDataBatch")
	ds, err := c.bd.CreateDataBatch(names)
	f.tr.end(id)
	if err != nil {
		return result{err: err}
	}
	c.undeleted = append(c.undeleted, placed{at: time.Now(), ds: ds})
	defer func() {
		if err := f.deleteDue(c); err != nil && res.err == nil {
			res = result{err: err}
		}
	}()
	id = f.tr.begin("core.PutAll")
	err = c.bd.PutAll(ds, contents)
	f.tr.end(id)
	if err != nil {
		return result{err: err}
	}
	scheduled := make([]data.Data, len(ds))
	for i, d := range ds {
		scheduled[i] = *d
	}

	start := time.Now()
	id = f.tr.begin("core.ScheduleAll")
	err = c.ad.ScheduleAll(scheduled, attrs)
	f.tr.end(id)
	if err != nil {
		return result{err: err}
	}
	rounds, err := f.stepWorkers(c.places, scheduled, want, start.Add(placeTimeout))
	if err != nil {
		return result{err: err}
	}
	var moved int64
	for i, d := range scheduled {
		for _, n := range f.workers {
			if !n.Holds(d.UID) {
				continue
			}
			got, err := n.Backend().Get(string(d.UID))
			if err != nil {
				return result{err: fmt.Errorf("place %s: %s holds it without content: %w", d.Name, n.Host, err)}
			}
			if !bytes.Equal(got, contents[i]) {
				return result{err: fmt.Errorf("place %s: %s holds %d bytes that differ from the %d put", d.Name, n.Host, len(got), len(contents[i]))}
			}
			moved += int64(len(got))
		}
	}
	return result{latency: time.Since(start), bytes: moved, syncRounds: rounds}
}

// deleteDue deletes the placed data whose time has come, oldest first, and
// returns the first failure.
func (f *fixture) deleteDue(c *client) (first error) {
	id := f.tr.begin("core.DeleteData")
	defer f.tr.end(id)
	for len(c.undeleted) > 0 && time.Since(c.undeleted[0].at) >= f.w.deleteAfter {
		for _, d := range c.undeleted[0].ds {
			if err := c.bd.DeleteData(*d); err != nil && first == nil {
				first = err
			}
		}
		c.undeleted = c.undeleted[1:]
	}
	return first
}

// stepWorkers runs the workers' heartbeats round-robin, starting with a
// different worker each place, until every datum has its wanted replicas or
// the deadline passes. It returns the number of SyncWait steps taken.
func (f *fixture) stepWorkers(first int, ds []data.Data, want []int, deadline time.Time) (int, error) {
	pending := make([]int, len(ds))
	for i := range pending {
		pending[i] = i
	}
	for rounds := 0; time.Now().Before(deadline); rounds++ {
		n := f.workers[(first+rounds)%len(f.workers)]
		id := f.tr.begin("core.SyncWait")
		err := n.SyncWait(1)
		f.tr.end(id)
		if err != nil {
			return rounds, fmt.Errorf("place: stepping %s: %w", n.Host, err)
		}
		still := pending[:0]
		for _, i := range pending {
			have := 0
			for _, n := range f.workers {
				if n.Holds(ds[i].UID) {
					have++
				}
			}
			if have < want[i] {
				still = append(still, i)
			}
		}
		if pending = still; len(pending) == 0 {
			return rounds + 1, nil
		}
	}
	return 0, errors.New("place: workers did not hold every wanted replica in time")
}
