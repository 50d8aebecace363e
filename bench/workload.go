package main

import (
	"fmt"
	"math/rand"
	"time"
)

// numClients is the load shape of every workload: a closed loop of exactly
// two client goroutines over two core.ConnectSharded connections — BitDew
// callers wait for their reply, and this box has two cores, so more
// clients would only measure the run queue.
const numClients = 2

// opKind is one class of operation a client issues.
type opKind int

const (
	opPut    opKind = iota // BitDew.Put into the client's ring of slots
	opFetch                // BitDew.GetBytes of a preloaded datum
	opSearch               // BitDew.SearchData by a preloaded datum's name
	opPlace                // create + put + ScheduleAll, then step the workers until every replica landed
	numKinds
)

var kindNames = [numKinds]string{"put", "fetch", "search", "place"}

// latencyNames are the classes as the latency metrics name them.
var latencyNames = [numKinds]string{"put", "fetch", "search", "placed"}

// gatedKinds are the classes the end-to-end metrics are about: each one's
// median latency is reported and its cost per op counted. Search is load on
// every workload and a per-layer diagnostic only: on catalog-durable one
// name search scans 8 192 rows for a tenth of a second, so a run cannot hold
// the samples a median needs without turning into a search benchmark, and
// the contract has no per-workload metric list.
var gatedKinds = []opKind{opPut, opFetch, opPlace}

// mix holds one client's count weights per op class.
type mix [numKinds]int

// workload is one set of inputs the benchmark runs. The fields are the
// input properties the plane's behaviour depends on: payload size against
// per-op fixed cost, catalog size against the locator cache, durability
// and replication, and how much placement traffic the scheduler sees.
type workload struct {
	name string
	why  string

	shards   int
	replicas int  // plane replication factor (0 = unreplicated)
	durable  bool // snapshot + WAL under a temporary StateDir

	payload int // bytes of every put, fetch and placed task datum
	preload int // data created before the clock starts: the fetch and search targets
	slots   int // each client's ring of put targets, so state stays bounded

	workers int             // worker core.Nodes the place op steps
	mixes   [numClients]mix // place is client 0's alone: it owns the workers
	group   int             // task data per place
	replica int             // wanted copies of each task datum
	bcast   int             // bytes of the broadcast datum each place carries (0 = none)
	// deleteAfter is how long placed data live before a later place deletes
	// them; 0 deletes them at once. A replicated plane needs the delay: a
	// replica that comes to pull content its primary has already deleted
	// retries for ever, and throttles every later pull while it does.
	deleteAfter time.Duration
}

// workloads lists the four workloads in the order BENCHMARK.json names them.
var workloads = []*workload{
	{
		name:   "small-ops",
		why:    "256 B payloads on 2 in-memory shards: per-op fixed cost (rpc frames, the put chain, one transfer attempt and http connect per datum) does all the work; the paper's Table 2/3 regime",
		shards: 2, payload: 256, preload: 256, slots: 32,
		workers: 2, group: 1, replica: 1,
		mixes: [numClients]mix{
			{opPut: 30, opFetch: 60, opSearch: 1, opPlace: 9},
			{opPut: 30, opFetch: 60, opSearch: 1},
		},
	},
	{
		name:   "bulk-transfer",
		why:    "8 MiB payloads on the same plane: bytes (httpx, backend copies, MD5 verify) do all the work and the control plane none; the paper's Fig. 3 regime, where a per-op optimisation must show no change",
		shards: 2, payload: 8 << 20, preload: 16, slots: 4,
		workers: 2, group: 1, replica: 2,
		mixes: [numClients]mix{
			{opPlace: 1},
			{opPut: 20, opFetch: 40, opSearch: 1},
		},
	},
	{
		name:   "wave-distribute",
		why:    "client 0 places back-to-back waves of one 1 MiB broadcast plus 64 task data of 16 KiB onto 4 workers while client 1 runs 16 KiB background traffic: scheduler, heartbeats and batch endpoints do the work; the paper's BLAST scenario",
		shards: 2, payload: 16 << 10, preload: 256, slots: 32,
		workers: 4, group: 64, replica: 1, bcast: 1 << 20,
		mixes: [numClients]mix{
			{opPlace: 1},
			{opPut: 30, opFetch: 68, opSearch: 2},
		},
	},
	{
		name:   "catalog-durable",
		why:    "1 KiB payloads on 3 durable shards at R=2 with 8192 preloaded data, twice the locator cache: the only workload on db WAL and compaction, FeedStore and repl shipping, locator-cache misses and a catalog scan that matters",
		shards: 3, replicas: 2, durable: true, payload: 1 << 10, preload: 8192, slots: 32,
		workers: 2, group: 1, replica: 1, deleteAfter: time.Second,
		mixes: [numClients]mix{
			{opPut: 100, opFetch: 88, opSearch: 1, opPlace: 16},
			{opPut: 100, opFetch: 88, opSearch: 1},
		},
	},
}

// minSamples is how many completed ops of class k a full run must hold for
// the class's median to be reported: 250, or 100 where one op moves a
// mebibyte or more — the same payload rule the layer probes count by.
func (w *workload) minSamples(k opKind) int {
	moved := w.payload
	if k == opPlace {
		moved = w.bcast*w.workers + w.group*w.payload*w.replica
	}
	if moved >= heavyPayload {
		return 100
	}
	return 250
}

// heavyPayload is the size from which an op or a probe call counts as heavy.
const heavyPayload = 1 << 20

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// op is one generated call: the program under test receives only these.
type op struct {
	kind opKind
	// target is the preloaded datum's index for fetch and search, the slot
	// index for put, unused for place.
	target int
	// stamp makes the content of a put or place unique and reproducible.
	stamp uint64
}

// sequence is one client's deterministic op stream: the same seed and
// client give the same ops in the same order on every commit. Rounds have a
// fixed length in time, so how far a run walks into the stream depends on
// the program's speed, but never which op comes next.
//
// Classes are dealt in shuffled blocks, one op per unit of weight, rather
// than drawn independently: every block holds the mix exactly. A rare,
// heavy class — catalog-durable's search is 1 op in 200 and half the
// client's time — would otherwise land 15 to 30 times in a round by luck
// alone and swing the round's throughput with it.
type sequence struct {
	rng      *rand.Rand
	block    []opKind
	pos      int
	preload  int
	slots    int
	nextSlot int
	// recent is a ring of the stream's latest fetch targets.
	recent    []int
	recentPos int
}

// fetchGap is how many other data a stream fetches before it may fetch one
// again, capped at half the preloaded data (8 of bulk-transfer's 16).
const fetchGap = 64

func newSequence(w *workload, seed int64, client int) *sequence {
	return newSequenceOf(w, seed, client, w.mixes[client])
}

// newSequenceOf is the seed's stream number `stream` dealt by the mix m. The
// clients' own streams are numbered as the clients are; a counted slice
// walks one class alone on a stream of its own.
func newSequenceOf(w *workload, seed int64, stream int, m mix) *sequence {
	s := &sequence{
		rng:     rand.New(rand.NewSource(seed*1_000_003 + int64(stream))),
		preload: w.preload,
		slots:   w.slots,
		recent:  make([]int, min(fetchGap, w.preload/2)),
	}
	for i := range s.recent {
		s.recent[i] = -1
	}
	for k, n := range m {
		for i := 0; i < n; i++ {
			s.block = append(s.block, opKind(k))
		}
	}
	s.pos = len(s.block)
	return s
}

func (s *sequence) next() op {
	if s.pos == len(s.block) {
		s.rng.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
		s.pos = 0
	}
	o := op{kind: s.block[s.pos], stamp: s.rng.Uint64()}
	s.pos++
	switch o.kind {
	case opPut:
		o.target = s.nextSlot
		s.nextSlot = (s.nextSlot + 1) % s.slots
	case opSearch:
		o.target = s.rng.Intn(s.preload)
	case opFetch:
		// Never a datum this stream fetched a moment ago. The transfer
		// engine forgets a finished download only when the goroutine that
		// ran it gets the processor again after waking the waiter; a fetch
		// of the same datum before that is handed the finished transfer and
		// finds the local copy gone. Right after is not the only time: with
		// that goroutine descheduled for a time slice the client fetches
		// thirty others first. About 1 op in 500 000 failed this
		// way with immediate repeats allowed; with only those ruled out, one
		// run in 160 had two failed ops (their text was not kept: this is
		// the one known way an op fails).
		for again := true; again; {
			o.target = s.rng.Intn(s.preload)
			again = false
			for _, t := range s.recent {
				again = again || t == o.target
			}
		}
		s.recent[s.recentPos] = o.target
		s.recentPos = (s.recentPos + 1) % len(s.recent)
	}
	return o
}
