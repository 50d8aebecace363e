package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bitdew/internal/repository"
)

// span is one timed interval at a layer boundary. Spans of one op share its
// op id; parent is the index of the span that caused this one (-1 for the
// op's root). Times are nanoseconds since the trace started.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer records spans in memory; nothing is written until the run ends. It
// serves the traced replay only, which runs ONE client, so the stack of
// open spans is a single chain and spans nest by interval. Leaf spans come
// from the transfer engine's goroutines as well, hence the mutex. A nil
// tracer records nothing — end-to-end runs have none — and one switched off
// costs an atomic load per call, which is how the traced run measures its
// own overhead on one plane.
type tracer struct {
	on    atomic.Bool
	mu    sync.Mutex
	t0    time.Time
	spans []span
	cur   int // innermost open span, -1 between ops
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), cur: -1} }

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil || !t.on.Load() {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cur == -1 {
		t.op++
	}
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: t.cur, Op: t.op})
	t.cur = len(t.spans) - 1
	return t.cur
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	t.cur = t.spans[id].Parent
}

// now is the start time a leaf span will be recorded with: the zero time
// while the tracer is off, which leaf ignores.
func (t *tracer) now() time.Time {
	if !t.on.Load() {
		return time.Time{}
	}
	return time.Now()
}

// leaf records a finished child of the innermost open span, named
// side+method.
func (t *tracer) leaf(side, method string, start time.Time) {
	if start.IsZero() {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name:   side + method,
		Start:  int64(start.Sub(t.t0)),
		End:    int64(now.Sub(t.t0)),
		Parent: t.cur,
		Op:     t.op,
	})
}

// write dumps every span as one JSON array.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanTotals is the per-name roll-up of a trace.
type spanTotals struct {
	Name    string
	Count   int
	TotalMs float64
	// SelfMs is the total minus the part of each span's interval its child
	// spans cover (overlapping children counted once).
	SelfMs float64
}

// summarize rolls the trace up by span name, busiest self time first.
func (t *tracer) summarize() []spanTotals {
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	byName := make(map[string]*spanTotals)
	for i, s := range t.spans {
		st := byName[s.Name]
		if st == nil {
			st = &spanTotals{Name: s.Name}
			byName[s.Name] = st
		}
		st.Count++
		dur := s.End - s.Start
		st.TotalMs += float64(dur) / 1e6
		st.SelfMs += float64(dur-t.covered(children[i], s.Start, s.End)) / 1e6
	}
	out := make([]spanTotals, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMs > out[j].SelfMs })
	return out
}

// covered is the length of [start,end) that the given spans cover.
func (t *tracer) covered(ids []int, start, end int64) int64 {
	sort.Slice(ids, func(i, j int) bool { return t.spans[ids[i]].Start < t.spans[ids[j]].Start })
	var total int64
	edge := start
	for _, id := range ids {
		s, e := t.spans[id].Start, t.spans[id].End
		if e > end {
			e = end
		}
		if s < edge {
			s = edge
		}
		if e > s {
			total += e - s
			edge = e
		}
	}
	return total
}

// tracedBackend is the timing decorator around a client-side
// repository.Backend: every call becomes a leaf span under whatever core
// API call is open.
type tracedBackend struct {
	inner repository.Backend
	t     *tracer
	side  string // span-name prefix saying whose local storage this is
}

// traceBackend wraps b in traced runs and returns it untouched otherwise.
func traceBackend(b repository.Backend, t *tracer, side string) repository.Backend {
	if t == nil {
		return b
	}
	return &tracedBackend{inner: b, t: t, side: "repository." + side + "."}
}

func (b *tracedBackend) Put(ref string, content []byte) error {
	start := b.t.now()
	err := b.inner.Put(ref, content)
	b.t.leaf(b.side, "Put", start)
	return err
}

func (b *tracedBackend) Append(ref string, chunk []byte) error {
	start := b.t.now()
	err := b.inner.Append(ref, chunk)
	b.t.leaf(b.side, "Append", start)
	return err
}

func (b *tracedBackend) Get(ref string) ([]byte, error) {
	start := b.t.now()
	content, err := b.inner.Get(ref)
	b.t.leaf(b.side, "Get", start)
	return content, err
}

func (b *tracedBackend) GetRange(ref string, off, n int64) ([]byte, error) {
	start := b.t.now()
	content, err := b.inner.GetRange(ref, off, n)
	b.t.leaf(b.side, "GetRange", start)
	return content, err
}

func (b *tracedBackend) Size(ref string) (int64, error) {
	start := b.t.now()
	n, err := b.inner.Size(ref)
	b.t.leaf(b.side, "Size", start)
	return n, err
}

func (b *tracedBackend) Delete(ref string) error {
	start := b.t.now()
	err := b.inner.Delete(ref)
	b.t.leaf(b.side, "Delete", start)
	return err
}

func (b *tracedBackend) Refs() ([]string, error) {
	start := b.t.now()
	refs, err := b.inner.Refs()
	b.t.leaf(b.side, "Refs", start)
	return refs, err
}
