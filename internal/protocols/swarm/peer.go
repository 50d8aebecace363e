package swarm

import (
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"bitdew/internal/netsrv"
	"bitdew/internal/repository"
)

// peerRequest is the peer-to-peer wire message.
type peerRequest struct {
	Op       string // "bitfield" | "piece"
	InfoHash string
	Index    int
}

type peerResponse struct {
	Bitfield []bool
	Data     []byte
	Err      string
}

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
	tracker string
	srv     netsrv.Server
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
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("swarm: peer listen %s: %w", addr, err)
	}
	p := &Peer{
		meta:      meta,
		store:     newPieceStore(meta),
		backend:   backend,
		tracker:   trackerAddr,
		rng:       rand.New(rand.NewSource(time.Now().UnixNano())),
		Fanout:    8,
		RoundWait: 50 * time.Millisecond,
	}
	p.srv.Serve(lis, p.serveConn)
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
	if tc, terr := dialTracker(trackerAddr); terr == nil {
		tc.setMeta(meta.InfoHash, meta)
		tc.close()
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

// Close stops serving and withdraws from the tracker.
func (p *Peer) Close() error {
	err := p.srv.Close()
	p.left.Do(func() {
		if tc, terr := dialTracker(p.tracker); terr == nil {
			tc.leave(p.meta.InfoHash, p.Addr())
			tc.close()
		}
	})
	return err
}

func (p *Peer) announce() error {
	tc, err := dialTracker(p.tracker)
	if err != nil {
		return err
	}
	defer tc.close()
	_, err = tc.announce(p.meta.InfoHash, p.Addr())
	return err
}

func (p *Peer) serveConn(conn net.Conn) {
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	for {
		var req peerRequest
		if err := dec.Decode(&req); err != nil {
			return
		}
		var resp peerResponse
		if req.InfoHash != p.meta.InfoHash {
			resp.Err = "swarm: wrong infohash"
		} else {
			switch req.Op {
			case "bitfield":
				resp.Bitfield = p.store.bitfield()
			case "piece":
				if data, ok := p.store.get(req.Index); ok {
					resp.Data = data
				} else {
					resp.Err = fmt.Sprintf("swarm: piece %d not held", req.Index)
				}
			default:
				resp.Err = fmt.Sprintf("swarm: unknown op %q", req.Op)
			}
		}
		if err := enc.Encode(resp); err != nil {
			return
		}
	}
}

// peerConn is an outbound connection to another peer.
type peerConn struct {
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
}

func dialPeer(addr string) (*peerConn, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &peerConn{conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn)}, nil
}

func (c *peerConn) roundTrip(req peerRequest) (peerResponse, error) {
	if err := c.enc.Encode(req); err != nil {
		return peerResponse{}, err
	}
	var resp peerResponse
	if err := c.dec.Decode(&resp); err != nil {
		return peerResponse{}, err
	}
	if resp.Err != "" {
		return resp, errors.New(resp.Err)
	}
	return resp, nil
}

func (c *peerConn) close() { c.conn.Close() }

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
		var views []peerView
		for _, addr := range peers {
			pc, err := dialPeer(addr)
			if err != nil {
				continue
			}
			resp, err := pc.roundTrip(peerRequest{Op: "bitfield", InfoHash: p.meta.InfoHash})
			if err != nil || len(resp.Bitfield) != p.meta.NumPieces() {
				pc.close()
				continue
			}
			views = append(views, peerView{addr: addr, conn: pc, have: resp.Bitfield})
		}
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
			for _, v := range views {
				v.conn.close()
			}
			time.Sleep(p.RoundWait)
			continue
		}
		p.rngMu.Lock()
		p.rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		p.rngMu.Unlock()
		if !p.RandomPieces {
			sortByOwners(cands, func(c cand) int { return c.owners })
		}

		// Fetch this round's batch with a small worker pool, one connection
		// per worker per peer choice.
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
					p.fetchPiece(c.index, views2addrs(views, c.index))
				}
			}()
		}
		wg.Wait()
		for _, v := range views {
			v.conn.close()
		}
	}
	content := p.store.assemble()
	if err := p.backend.Put(p.meta.Ref, content); err != nil {
		return fmt.Errorf("swarm: storing assembled content: %w", err)
	}
	return nil
}

// peerView is one surveyed peer: its address, live connection and bitfield.
type peerView struct {
	addr string
	conn *peerConn
	have []bool
}

// views2addrs lists the addresses of peers holding piece index.
func views2addrs(views []peerView, index int) []string {
	var out []string
	for _, v := range views {
		if v.have[index] {
			out = append(out, v.addr)
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

// fetchPiece downloads and verifies one piece from any of the given owners.
func (p *Peer) fetchPiece(index int, owners []string) {
	if _, ok := p.store.get(index); ok {
		return
	}
	p.rngMu.Lock()
	p.rng.Shuffle(len(owners), func(i, j int) { owners[i], owners[j] = owners[j], owners[i] })
	p.rngMu.Unlock()
	for _, addr := range owners {
		pc, err := dialPeer(addr)
		if err != nil {
			continue
		}
		resp, err := pc.roundTrip(peerRequest{Op: "piece", InfoHash: p.meta.InfoHash, Index: index})
		pc.close()
		if err != nil {
			continue
		}
		if !p.meta.VerifyPiece(index, resp.Data) {
			continue // corrupt or truncated: try another owner
		}
		p.store.set(index, resp.Data)
		return
	}
}

// peerList asks the tracker for the current swarm membership.
func (p *Peer) peerList() ([]string, error) {
	tc, err := dialTracker(p.tracker)
	if err != nil {
		return nil, err
	}
	defer tc.close()
	return tc.announce(p.meta.InfoHash, p.Addr())
}
