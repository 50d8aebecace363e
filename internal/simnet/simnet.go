// Package simnet is a discrete-event, flow-level network simulator. It
// stands in for the physical testbeds of the paper's evaluation —
// Grid'5000 clusters and the DSL-Lab broadband platform — which cannot be
// reserved here. Bulk transfers are modelled as fluid flows sharing link
// bandwidth under max-min fairness, the standard abstraction for
// completion-time studies of large transfers: it preserves exactly the
// relationships the paper's figures report (who finishes first, how
// completion time scales with node count and file size, where protocol
// crossovers fall) without packet-level detail.
//
// Each node has an uplink and a downlink capacity. A flow from A to B is
// constrained by its share of A's uplink and B's downlink; rates are
// recomputed by progressive filling whenever the flow set changes. Virtual
// time advances from event to event, so simulating a thousand-second
// experiment costs microseconds of wall clock.
package simnet

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
)

// Node is one simulated host.
type Node struct {
	Name string
	// UpBps and DownBps are link capacities in bytes per second.
	UpBps, DownBps float64
	// Alive is false after FailNode.
	Alive bool
}

// Flow is one bulk transfer in progress.
type Flow struct {
	ID        int
	Src, Dst  string
	remaining float64
	rate      float64
	// onDone fires at completion with the completion timestamp.
	onDone func(at float64)
	// onFail fires if an endpoint dies first.
	onFail   func(at float64)
	finished bool
	failed   bool
}

// Remaining returns the bytes left to transfer.
func (f *Flow) Remaining() float64 { return f.remaining }

// Rate returns the current fair-share rate in bytes/s.
func (f *Flow) Rate() float64 { return f.rate }

// event is one scheduled occurrence.
type event struct {
	at   float64
	seq  int // tiebreaker for deterministic ordering
	fire func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h eventHeap) peek() *event  { return h[0] }
func (s *Sim) push(e *event)      { heap.Push(&s.events, e) }
func (s *Sim) pop() *event        { return heap.Pop(&s.events).(*event) }

// Sim is one simulation run. Not safe for concurrent use: drive it from a
// single goroutine (runs are deterministic and fast).
type Sim struct {
	now    float64
	seq    int
	events eventHeap
	nodes  map[string]*Node
	flows  map[int]*Flow
	nextID int

	// version invalidates queued next-completion events when rates change.
	version int
	// lastProgress is the time flows were last advanced.
	lastProgress float64
}

// New returns an empty simulation at time zero.
func New() *Sim {
	return &Sim{nodes: make(map[string]*Node), flows: make(map[int]*Flow)}
}

// Now returns the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.now }

// AddNode registers a host with the given up/down capacities (bytes/s).
func (s *Sim) AddNode(name string, upBps, downBps float64) *Node {
	n := &Node{Name: name, UpBps: upBps, DownBps: downBps, Alive: true}
	s.nodes[name] = n
	return n
}

// Node returns a registered node (nil if unknown).
func (s *Sim) Node(name string) *Node { return s.nodes[name] }

// At schedules fn at absolute virtual time t (>= now).
func (s *Sim) At(t float64, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	s.push(&event{at: t, seq: s.seq, fire: fn})
}

// After schedules fn dt seconds from now.
func (s *Sim) After(dt float64, fn func()) { s.At(s.now+dt, fn) }

// StartFlow begins a transfer of size bytes from src to dst. onDone fires
// at completion; onFail (optional) fires if an endpoint dies first.
func (s *Sim) StartFlow(src, dst string, size float64, onDone func(at float64)) *Flow {
	return s.StartFlowF(src, dst, size, onDone, nil)
}

// StartFlowF is StartFlow with a failure callback.
func (s *Sim) StartFlowF(src, dst string, size float64, onDone, onFail func(at float64)) *Flow {
	if size <= 0 {
		f := &Flow{Src: src, Dst: dst, finished: true}
		if onDone != nil {
			done := onDone
			s.After(0, func() { done(s.now) })
		}
		return f
	}
	s.nextID++
	f := &Flow{ID: s.nextID, Src: src, Dst: dst, remaining: size, onDone: onDone, onFail: onFail}
	sn, dn := s.nodes[src], s.nodes[dst]
	if sn == nil || dn == nil || !sn.Alive || !dn.Alive {
		f.failed = true
		if onFail != nil {
			fail := onFail
			s.After(0, func() { fail(s.now) })
		}
		return f
	}
	s.flows[f.ID] = f
	s.reshape()
	return f
}

// CancelFlow aborts a flow without firing callbacks.
func (s *Sim) CancelFlow(f *Flow) {
	if _, ok := s.flows[f.ID]; ok {
		delete(s.flows, f.ID)
		f.failed = true
		s.reshape()
	}
}

// FailNode kills a host: all flows touching it fail immediately.
func (s *Sim) FailNode(name string) {
	n := s.nodes[name]
	if n == nil || !n.Alive {
		return
	}
	n.Alive = false
	var dead []*Flow
	for _, f := range s.flows {
		if f.Src == name || f.Dst == name {
			dead = append(dead, f)
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].ID < dead[j].ID })
	for _, f := range dead {
		delete(s.flows, f.ID)
		f.failed = true
		if f.onFail != nil {
			fail := f.onFail
			s.After(0, func() { fail(s.now) })
		}
	}
	s.reshape()
}

// ReviveNode brings a failed host back (fresh arrival in churn scenarios).
func (s *Sim) ReviveNode(name string) {
	if n := s.nodes[name]; n != nil {
		n.Alive = true
	}
}

// reshape recomputes max-min fair rates and schedules the next completion.
func (s *Sim) reshape() {
	s.progressTo(s.now) // account for bytes moved at the old rates
	s.version++

	// Progressive filling. Each node contributes two "links": its uplink
	// shared by outgoing flows and its downlink shared by incoming flows.
	type link struct {
		capacity float64
		flows    []*Flow
	}
	links := make(map[string]*link)
	addFlow := func(key string, capacity float64, f *Flow) {
		l := links[key]
		if l == nil {
			l = &link{capacity: capacity}
			links[key] = l
		}
		l.flows = append(l.flows, f)
	}
	active := make([]*Flow, 0, len(s.flows))
	for _, f := range s.flows {
		active = append(active, f)
	}
	sort.Slice(active, func(i, j int) bool { return active[i].ID < active[j].ID })
	for _, f := range active {
		f.rate = -1 // unassigned
		addFlow("up:"+f.Src, s.nodes[f.Src].UpBps, f)
		addFlow("down:"+f.Dst, s.nodes[f.Dst].DownBps, f)
	}
	unassigned := len(active)
	for unassigned > 0 {
		// Find the bottleneck link: smallest fair share among links with
		// unassigned flows.
		bottleneckShare := math.Inf(1)
		var bottleneckKeys []string
		for key, l := range links {
			n := 0
			for _, f := range l.flows {
				if f.rate < 0 {
					n++
				}
			}
			if n == 0 {
				continue
			}
			share := l.capacity / float64(n)
			if share < bottleneckShare-1e-12 {
				bottleneckShare = share
				bottleneckKeys = bottleneckKeys[:0]
				bottleneckKeys = append(bottleneckKeys, key)
			} else if share <= bottleneckShare+1e-12 {
				bottleneckKeys = append(bottleneckKeys, key)
			}
		}
		if math.IsInf(bottleneckShare, 1) {
			break
		}
		sort.Strings(bottleneckKeys)
		// Fix every unassigned flow on the bottleneck links at the share,
		// then subtract their consumption from their other links.
		for _, key := range bottleneckKeys {
			for _, f := range links[key].flows {
				if f.rate >= 0 {
					continue
				}
				f.rate = bottleneckShare
				unassigned--
				for _, other := range []string{"up:" + f.Src, "down:" + f.Dst} {
					if other == key {
						continue
					}
					if l := links[other]; l != nil {
						l.capacity -= bottleneckShare
						if l.capacity < 0 {
							l.capacity = 0
						}
					}
				}
			}
			links[key].capacity = 0
		}
	}
	s.scheduleNextCompletion()
}

// progressTo advances every active flow's remaining bytes to time t.
func (s *Sim) progressTo(t float64) {
	dt := t - s.lastProgress
	if dt > 0 {
		for _, f := range s.flows {
			f.remaining -= f.rate * dt
			if f.remaining < 0 {
				f.remaining = 0
			}
		}
	}
	s.lastProgress = t
}

// scheduleNextCompletion queues an event at the earliest projected flow
// completion, tagged with the current version so stale events are ignored.
func (s *Sim) scheduleNextCompletion() {
	next := math.Inf(1)
	for _, f := range s.flows {
		if f.rate > 0 {
			if t := s.now + f.remaining/f.rate; t < next {
				next = t
			}
		}
	}
	if math.IsInf(next, 1) {
		return
	}
	version := s.version
	s.seq++
	s.push(&event{at: next, seq: s.seq, fire: func() {
		if version != s.version {
			return // rates changed since this was scheduled
		}
		s.completeDue()
	}})
}

// completeDue finishes every flow whose remaining bytes reach zero now. A
// flow also completes when its residue is too small for virtual time to
// advance any further (float64 granularity at the current timestamp) —
// without this, a sub-microbyte residue would re-schedule a completion
// event at an identical timestamp forever.
func (s *Sim) completeDue() {
	s.progressTo(s.now)
	var done []*Flow
	for _, f := range s.flows {
		if f.remaining <= 1e-6 || (f.rate > 0 && s.now+f.remaining/f.rate <= s.now) {
			done = append(done, f)
		}
	}
	sort.Slice(done, func(i, j int) bool { return done[i].ID < done[j].ID })
	for _, f := range done {
		delete(s.flows, f.ID)
		f.finished = true
		f.remaining = 0
	}
	for _, f := range done {
		if f.onDone != nil {
			f.onDone(s.now)
		}
	}
	s.reshape()
}

// Run processes events until none remain, returning the final time.
func (s *Sim) Run() float64 {
	for len(s.events) > 0 {
		e := s.pop()
		if e.at > s.now {
			s.progressTo(e.at)
			s.now = e.at
		}
		e.fire()
	}
	return s.now
}

// RunUntil processes events up to time t, then stops (remaining events
// stay queued).
func (s *Sim) RunUntil(t float64) {
	for len(s.events) > 0 && s.events.peek().at <= t {
		e := s.pop()
		if e.at > s.now {
			s.progressTo(e.at)
			s.now = e.at
		}
		e.fire()
	}
	if t > s.now {
		s.progressTo(t)
		s.now = t
	}
}

// String summarises the simulation state.
func (s *Sim) String() string {
	return fmt.Sprintf("simnet{t=%.3fs nodes=%d flows=%d}", s.now, len(s.nodes), len(s.flows))
}
