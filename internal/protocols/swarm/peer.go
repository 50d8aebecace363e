package swarm

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"bitdew/internal/repository"
	"bitdew/internal/rpc"
)

// pieceArgs names one piece of one swarm: the argument of a peer's Piece.
type pieceArgs struct {
	InfoHash string
	Index    int
}

var errWrongInfohash = errors.New("swarm: wrong infohash")

// pieceStore tracks which pieces a peer holds and their bytes.
type pieceStore struct {
	mu     sync.RWMutex
	meta   Metainfo
	have   []bool
	pieces [][]byte
	count  int
}

func newPieceStore(meta Metainfo) *pieceStore {
	return &pieceStore{
		meta:   meta,
		have:   make([]bool, meta.NumPieces()),
		pieces: make([][]byte, meta.NumPieces()),
	}
}

func (s *pieceStore) markAllFrom(content []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.have {
		off := int64(i) * s.meta.PieceSize
		end := off + s.meta.PieceLength(i)
		s.pieces[i] = append([]byte(nil), content[off:end]...)
		s.have[i] = true
	}
	s.count = len(s.have)
}

func (s *pieceStore) bitfield() []bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]bool(nil), s.have...)
}

func (s *pieceStore) get(i int) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if i < 0 || i >= len(s.have) || !s.have[i] {
		return nil, false
	}
	return s.pieces[i], true
}

// set stores a verified piece; it reports whether the piece was new.
func (s *pieceStore) set(i int, content []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.have[i] {
		return false
	}
	s.pieces[i] = append([]byte(nil), content...)
	s.have[i] = true
	s.count++
	return true
}

func (s *pieceStore) complete() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.count == len(s.have)
}

func (s *pieceStore) assemble() []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]byte, 0, s.meta.Size)
	for _, p := range s.pieces {
		out = append(out, p...)
	}
	return out
}

// Peer is one swarm participant: it serves the pieces it holds and, when
// started as a leecher, downloads the missing ones rarest-first.
type Peer struct {
	meta    Metainfo
	store   *pieceStore
	backend repository.Backend
	tracker rpc.Client // held for the peer's life
	srv     *rpc.Server
	left    sync.Once // withdrawn from the tracker
	rng     *rand.Rand
	rngMu   sync.Mutex

	// Fanout caps how many peers are consulted per round; RoundWait is the
	// pause between rounds when no progress is possible yet.
	Fanout    int
	RoundWait time.Duration
	// RandomPieces disables rarest-first selection (ablation switch):
	// pieces are then fetched in shuffled order regardless of how many
	// peers hold them.
	RandomPieces bool
}

// newPeer builds the shared state of seeders and leechers.
func newPeer(backend repository.Backend, meta Metainfo, trackerAddr, addr string) (*Peer, error) {
	if err := meta.Validate(); err != nil {
		return nil, err
	}
	tracker, err := rpc.Dial(trackerAddr, rpc.WithCallTimeout(callTimeout))
	if err != nil {
		return nil, fmt.Errorf("swarm: tracker: %w", err)
	}
	p := &Peer{
		meta:      meta,
		store:     newPieceStore(meta),
		backend:   backend,
		tracker:   tracker,
		rng:       rand.New(rand.NewSource(time.Now().UnixNano())),
		Fanout:    8,
		RoundWait: 50 * time.Millisecond,
	}
	m := rpc.NewMux()
	p.Mount(m)
	if p.srv, err = rpc.Listen(addr, m); err != nil {
		tracker.Close()
		return nil, fmt.Errorf("swarm: peer: %w", err)
	}
	return p, nil
}

// NewSeeder starts a peer that already holds the full content (read from
// the backend under meta.Ref) and announces it to the tracker.
func NewSeeder(backend repository.Backend, meta Metainfo, trackerAddr, addr string) (*Peer, error) {
	content, err := backend.Get(meta.Ref)
	if err != nil {
		return nil, fmt.Errorf("swarm: seeder content: %w", err)
	}
	if int64(len(content)) != meta.Size {
		return nil, fmt.Errorf("swarm: seeder content size %d != metainfo %d", len(content), meta.Size)
	}
	p, err := newPeer(backend, meta, trackerAddr, addr)
	if err != nil {
		return nil, err
	}
	p.store.markAllFrom(content)
	if err := p.announce(); err != nil {
		p.Close()
		return nil, err
	}
	// Publish the metainfo so leechers can bootstrap from a Locator (data
	// checksum + tracker address) without side channels.
	if err := p.tracker.Call(trackerService, "SetMeta", meta, nil); err != nil {
		p.Close()
		return nil, err
	}
	return p, nil
}

// NewLeecher starts an empty peer; call Download to fetch the content.
func NewLeecher(backend repository.Backend, meta Metainfo, trackerAddr, addr string) (*Peer, error) {
	p, err := newPeer(backend, meta, trackerAddr, addr)
	if err != nil {
		return nil, err
	}
	if err := p.announce(); err != nil {
		p.Close()
		return nil, err
	}
	return p, nil
}

// Addr returns the peer's serving address.
func (p *Peer) Addr() string { return p.srv.Addr() }

// Progress returns pieces held and total pieces.
func (p *Peer) Progress() (have, total int) {
	p.store.mu.RLock()
	defer p.store.mu.RUnlock()
	return p.store.count, len(p.store.have)
}

// Complete reports whether the peer holds every piece.
func (p *Peer) Complete() bool { return p.store.complete() }

// Close stops serving, withdraws from the tracker and hangs up on it.
func (p *Peer) Close() error {
	err := p.srv.Close()
	p.left.Do(func() {
		p.tracker.Call(trackerService, "Leave", p.member(), nil)
		p.tracker.Close()
	})
	return err
}

func (p *Peer) member() member { return member{InfoHash: p.meta.InfoHash, PeerAddr: p.Addr()} }

func (p *Peer) announce() error {
	_, err := p.peerList()
	return err
}

// Mount registers the peer's Bitfield and Piece on m as the "peer" service.
func (p *Peer) Mount(m *rpc.Mux) {
	rpc.Register(m, peerService, "Bitfield", func(infohash string) ([]bool, error) {
		if infohash != p.meta.InfoHash {
			return nil, errWrongInfohash
		}
		return p.store.bitfield(), nil
	})
	rpc.Register(m, peerService, "Piece", func(a pieceArgs) ([]byte, error) {
		if a.InfoHash != p.meta.InfoHash {
			return nil, errWrongInfohash
		}
		data, ok := p.store.get(a.Index)
		if !ok {
			return nil, fmt.Errorf("swarm: piece %d not held", a.Index)
		}
		return data, nil
	})
}

// Download fetches every missing piece, rarest-first, within the deadline.
// On completion the assembled content is stored in the backend under
// meta.Ref and verified against the infohash via the piece hashes.
func (p *Peer) Download(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	workers := 4
	for !p.store.complete() {
		if time.Now().After(deadline) {
			have, total := p.Progress()
			return fmt.Errorf("swarm: download timed out with %d/%d pieces", have, total)
		}
		peers, err := p.peerList()
		if err != nil || len(peers) == 0 {
			time.Sleep(p.RoundWait)
			continue
		}
		// Survey bitfields of up to Fanout peers.
		p.rngMu.Lock()
		p.rng.Shuffle(len(peers), func(i, j int) { peers[i], peers[j] = peers[j], peers[i] })
		p.rngMu.Unlock()
		if len(peers) > p.Fanout {
			peers = peers[:p.Fanout]
		}
		views := p.survey(peers, deadline)
		if len(views) == 0 {
			time.Sleep(p.RoundWait)
			continue
		}
		// Rarest-first order over missing pieces available somewhere.
		mine := p.store.bitfield()
		type cand struct {
			index, owners int
		}
		var cands []cand
		for i := range mine {
			if mine[i] {
				continue
			}
			owners := 0
			for _, v := range views {
				if v.have[i] {
					owners++
				}
			}
			if owners > 0 {
				cands = append(cands, cand{index: i, owners: owners})
			}
		}
		if len(cands) == 0 {
			closeViews(views)
			time.Sleep(p.RoundWait)
			continue
		}
		p.rngMu.Lock()
		p.rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		p.rngMu.Unlock()
		if !p.RandomPieces {
			sortByOwners(cands, func(c cand) int { return c.owners })
		}

		// Fetch this round's batch with a small worker pool over the
		// survey's connections.
		batch := cands
		if len(batch) > workers*4 {
			batch = batch[:workers*4]
		}
		jobs := make(chan cand, len(batch))
		for _, c := range batch {
			jobs <- c
		}
		close(jobs)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for c := range jobs {
					p.fetchPiece(c.index, holders(views, c.index), deadline)
				}
			}()
		}
		wg.Wait()
		closeViews(views)
	}
	content := p.store.assemble()
	if err := p.backend.Put(p.meta.Ref, content); err != nil {
		return fmt.Errorf("swarm: storing assembled content: %w", err)
	}
	return nil
}

// peerView is one surveyed peer: the round's client of it and its bitfield.
type peerView struct {
	conn rpc.Client
	have []bool
}

// survey asks each of peers for its bitfield, on a client that then serves
// the round's piece calls. A call is bounded by what is left of the
// download's deadline, so a peer that never answers costs at most that.
func (p *Peer) survey(peers []string, deadline time.Time) []peerView {
	var views []peerView
	for _, addr := range peers {
		left := time.Until(deadline)
		if left <= 0 {
			break
		}
		c, err := rpc.Dial(addr, rpc.WithCallTimeout(min(left, callTimeout)))
		if err != nil {
			continue
		}
		var have []bool
		if err := c.Call(peerService, "Bitfield", p.meta.InfoHash, &have); err != nil || len(have) != p.meta.NumPieces() {
			c.Close()
			continue
		}
		views = append(views, peerView{conn: c, have: have})
	}
	return views
}

func closeViews(views []peerView) {
	for _, v := range views {
		v.conn.Close()
	}
}

// holders lists the clients of the peers holding piece index.
func holders(views []peerView, index int) []rpc.Client {
	var out []rpc.Client
	for _, v := range views {
		if v.have[index] {
			out = append(out, v.conn)
		}
	}
	return out
}

// sortByOwners is an insertion sort keeping the earlier shuffle as the
// tiebreaker (random among equally-rare pieces, the BitTorrent heuristic).
func sortByOwners[T any](s []T, key func(T) int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && key(s[j]) < key(s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// fetchPiece downloads and verifies one piece from any of the given owners,
// trying none once the deadline has passed.
func (p *Peer) fetchPiece(index int, owners []rpc.Client, deadline time.Time) {
	if _, ok := p.store.get(index); ok {
		return
	}
	p.rngMu.Lock()
	p.rng.Shuffle(len(owners), func(i, j int) { owners[i], owners[j] = owners[j], owners[i] })
	p.rngMu.Unlock()
	for _, c := range owners {
		if time.Now().After(deadline) {
			return
		}
		var data []byte
		if err := c.Call(peerService, "Piece", pieceArgs{InfoHash: p.meta.InfoHash, Index: index}, &data); err != nil {
			continue
		}
		if !p.meta.VerifyPiece(index, data) {
			continue // corrupt or truncated: try another owner
		}
		p.store.set(index, data)
		return
	}
}

// peerList announces the peer to the tracker and returns the swarm's other
// members.
func (p *Peer) peerList() ([]string, error) {
	var peers []string
	err := p.tracker.Call(trackerService, "Announce", p.member(), &peers)
	return peers, err
}
