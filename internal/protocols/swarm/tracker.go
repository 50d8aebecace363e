package swarm

import (
	"encoding/gob"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"bitdew/internal/netsrv"
)

// trackerRequest is the announce/scrape wire message.
type trackerRequest struct {
	Op       string // "announce" | "peers" | "leave" | "setmeta" | "getmeta"
	InfoHash string
	PeerAddr string
	Meta     Metainfo
}

type trackerResponse struct {
	Peers []string
	Meta  Metainfo
	Err   string
}

// Tracker coordinates peer discovery per infohash, the way a BitTorrent
// tracker does. Announcing registers the caller and returns the other known
// peers of the swarm.
type Tracker struct {
	srv netsrv.Server

	mu     sync.Mutex
	swarms map[string]map[string]time.Time // infohash -> peerAddr -> lastSeen
	metas  map[string]Metainfo             // infohash -> metainfo
}

// NewTracker starts a tracker on addr.
func NewTracker(addr string) (*Tracker, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("swarm: tracker listen %s: %w", addr, err)
	}
	t := &Tracker{
		swarms: make(map[string]map[string]time.Time),
		metas:  make(map[string]Metainfo),
	}
	t.srv.Serve(lis, t.serveConn)
	return t, nil
}

// Addr returns the tracker's listen address.
func (t *Tracker) Addr() string { return t.srv.Addr() }

// Close stops the tracker.
func (t *Tracker) Close() error { return t.srv.Close() }

// Swarm returns the current peer set of an infohash (for tests/metrics).
func (t *Tracker) Swarm(infohash string) []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []string
	for p := range t.swarms[infohash] {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

func (t *Tracker) serveConn(conn net.Conn) {
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	for {
		var req trackerRequest
		if err := dec.Decode(&req); err != nil {
			return
		}
		var resp trackerResponse
		switch req.Op {
		case "announce":
			t.mu.Lock()
			s := t.swarms[req.InfoHash]
			if s == nil {
				s = make(map[string]time.Time)
				t.swarms[req.InfoHash] = s
			}
			s[req.PeerAddr] = time.Now()
			for p := range s {
				if p != req.PeerAddr {
					resp.Peers = append(resp.Peers, p)
				}
			}
			t.mu.Unlock()
			sort.Strings(resp.Peers)
		case "peers":
			t.mu.Lock()
			for p := range t.swarms[req.InfoHash] {
				if p != req.PeerAddr {
					resp.Peers = append(resp.Peers, p)
				}
			}
			t.mu.Unlock()
			sort.Strings(resp.Peers)
		case "leave":
			t.mu.Lock()
			delete(t.swarms[req.InfoHash], req.PeerAddr)
			t.mu.Unlock()
		case "setmeta":
			t.mu.Lock()
			t.metas[req.InfoHash] = req.Meta
			t.mu.Unlock()
		case "getmeta":
			t.mu.Lock()
			meta, ok := t.metas[req.InfoHash]
			t.mu.Unlock()
			if !ok {
				resp.Err = fmt.Sprintf("swarm: no metainfo for %s", req.InfoHash)
			} else {
				resp.Meta = meta
			}
		default:
			resp.Err = fmt.Sprintf("swarm: unknown tracker op %q", req.Op)
		}
		if err := enc.Encode(resp); err != nil {
			return
		}
	}
}

// trackerClient is one connection to a tracker.
type trackerClient struct {
	mu   sync.Mutex
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
}

func dialTracker(addr string) (*trackerClient, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("swarm: dial tracker %s: %w", addr, err)
	}
	return &trackerClient{conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn)}, nil
}

func (c *trackerClient) roundTrip(req trackerRequest) (trackerResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.enc.Encode(req); err != nil {
		return trackerResponse{}, err
	}
	var resp trackerResponse
	if err := c.dec.Decode(&resp); err != nil {
		return trackerResponse{}, err
	}
	if resp.Err != "" {
		return resp, fmt.Errorf("%s", resp.Err)
	}
	return resp, nil
}

func (c *trackerClient) announce(infohash, peerAddr string) ([]string, error) {
	resp, err := c.roundTrip(trackerRequest{Op: "announce", InfoHash: infohash, PeerAddr: peerAddr})
	return resp.Peers, err
}

func (c *trackerClient) leave(infohash, peerAddr string) error {
	_, err := c.roundTrip(trackerRequest{Op: "leave", InfoHash: infohash, PeerAddr: peerAddr})
	return err
}

func (c *trackerClient) setMeta(infohash string, meta Metainfo) error {
	_, err := c.roundTrip(trackerRequest{Op: "setmeta", InfoHash: infohash, Meta: meta})
	return err
}

func (c *trackerClient) getMeta(infohash string) (Metainfo, error) {
	resp, err := c.roundTrip(trackerRequest{Op: "getmeta", InfoHash: infohash})
	return resp.Meta, err
}

// FetchMeta retrieves the metainfo registered for infohash at the tracker,
// letting a leecher bootstrap a swarm download from a datum's checksum and
// a tracker address alone (the content of a BitDew Locator).
func FetchMeta(trackerAddr, infohash string) (Metainfo, error) {
	tc, err := dialTracker(trackerAddr)
	if err != nil {
		return Metainfo{}, err
	}
	defer tc.close()
	return tc.getMeta(infohash)
}

func (c *trackerClient) close() error { return c.conn.Close() }
