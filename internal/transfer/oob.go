// Package transfer implements BitDew's Data Transfer service (DT) and the
// out-of-band transfer framework of paper §3.4.2 and Figure 2.
//
// BitDew never moves bytes itself: data travel out-of-band through
// pluggable file-transfer protocols. A protocol plugs in by implementing
// the OOBTransfer interface — the paper's seven methods: open and close the
// connection, probe the transfer, and send/receive from the sender and
// receiver sides — and registering a factory under its protocol name.
// Reliability is receiver-driven: the receiver is the authority on how many
// bytes landed and whether the MD5 signature matches, and the engine polls
// that state on the monitoring period, resuming or restarting transfers
// that stall.
package transfer

import (
	"errors"
	"fmt"
	"hash"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bitdew/internal/data"
	"bitdew/internal/protocols/ftp"
	"bitdew/internal/protocols/httpx"
	"bitdew/internal/protocols/swarm"
	"bitdew/internal/repository"
)

// Progress is a snapshot of a transfer observed from the receiver side.
type Progress struct {
	// Bytes transferred so far.
	Bytes int64
	// Total bytes expected (0 when unknown).
	Total int64
	// Done reports logical completion (all bytes landed and verified when
	// verification is the protocol's job).
	Done bool
	// Checksum is the hex MD5 of the stored bytes, set with Done by a
	// receiver that hashed them as they landed; the engine then verifies
	// against it instead of reading the content back.
	Checksum string
}

// OOBTransfer is one out-of-band transfer of one datum, bound at creation
// to the datum, a locator and the local storage backend. Implementations
// correspond to Figure 2's BlockingOOBTransfer: Send and Receive block
// until the protocol finishes or fails. Non-blocking behaviour is layered
// on top by the engine (Figure 2's NonBlockingOOBTransfer), so protocol
// authors only write the seven primitive methods.
type OOBTransfer interface {
	// Connect opens protocol connections.
	Connect() error
	// Disconnect closes protocol connections. It must be safe to call
	// after a failed Connect and more than once.
	Disconnect() error
	// Probe reports receiver-side progress.
	Probe() (Progress, error)
	// Receive downloads the datum from the locator into local storage,
	// resuming from whatever prefix is already stored when the protocol
	// supports it.
	Receive() error
	// Send uploads the datum from local storage to the locator.
	Send() error
}

// Factory builds a transfer for (datum, locator) over the given backend.
type Factory func(d data.Data, loc data.Locator, backend repository.Backend) (OOBTransfer, error)

var (
	registryMu sync.RWMutex
	registry   = map[string]Factory{}
)

// RegisterProtocol installs a transfer factory under a protocol name,
// replacing any previous registration. The built-in protocols ("ftp",
// "http", "bittorrent") are registered at init; users plug in new protocols
// the same way, which is the extensibility point of Figure 2.
func RegisterProtocol(name string, f Factory) {
	registryMu.Lock()
	defer registryMu.Unlock()
	registry[name] = f
}

// Protocols lists registered protocol names, sorted.
func Protocols() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// New builds a transfer for the locator's protocol.
func New(d data.Data, loc data.Locator, backend repository.Backend) (OOBTransfer, error) {
	registryMu.RLock()
	f := registry[loc.Protocol]
	registryMu.RUnlock()
	if f == nil {
		return nil, fmt.Errorf("transfer: no protocol %q registered (have %v)", loc.Protocol, Protocols())
	}
	return f(d, loc, backend)
}

func init() {
	RegisterProtocol("ftp", newFTPTransfer)
	RegisterProtocol("http", newHTTPTransfer)
	RegisterProtocol("bittorrent", newSwarmTransfer)
}

// errNotConnected is returned by operations before Connect.
var errNotConnected = errors.New("transfer: not connected")

// httpClient is the process's one client for http transfers.
var httpClient = httpx.NewClient()

// tally is the checksum and the count of the bytes stored under one datum.
type tally struct {
	sum hash.Hash
	n   atomic.Int64
}

func (t *tally) Write(p []byte) (int, error) {
	t.n.Add(int64(len(p)))
	return t.sum.Write(p)
}

// landing is where one download attempt lands: the backend's writer for the
// datum, with every byte stored under the datum — the prefix an earlier
// attempt left included — hashed on its way in, so that verifying the
// download does not read it back. Handed to io.Copy it passes the source on
// to the backend writer's ReadFrom: the bytes land in the backend's own
// reservation and are hashed there.
type landing struct {
	w      repository.Writer
	stored tally
	offset int64 // where this attempt resumes
}

// openLanding opens d's local ref for a download: from the end of the stored
// prefix when there is a usable one, else from scratch.
func openLanding(backend repository.Backend, d data.Data) (*landing, error) {
	l := &landing{stored: tally{sum: data.NewChecksum()}}
	ref := string(d.UID)
	if prefix, size, err := repository.OpenReader(backend, ref); err == nil {
		// A stored copy larger than the datum is stale: start over.
		if size <= d.Size {
			// Should the ref grow meanwhile, OpenWriter refuses the offset.
			l.offset, err = io.Copy(&l.stored, prefix)
		}
		prefix.Close()
		if err != nil {
			return nil, fmt.Errorf("transfer: hashing the stored prefix of %s: %w", d.UID, err)
		}
	}
	var err error
	l.w, err = repository.OpenWriter(backend, ref, l.offset, d.Size)
	return l, err
}

func (l *landing) Write(p []byte) (int, error) {
	n, err := l.w.Write(p)
	l.stored.Write(p[:n])
	return n, err
}

func (l *landing) ReadFrom(r io.Reader) (int64, error) {
	return l.w.ReadFrom(io.TeeReader(r, &l.stored))
}

// close ends the attempt that failed with err, or did not. What landed is
// committed either way: after a failure it is the prefix the next attempt
// resumes from. An attempt that failed before its first byte commits
// nothing, so that it does not replace stored content with an empty one.
func (l *landing) close(err error) error {
	if err == nil || l.stored.n.Load() > l.offset {
		if cerr := l.w.Commit(); err == nil {
			err = cerr
		}
	}
	l.w.Close()
	return err
}

// receiver is the receiving side the single-source protocols share.
type receiver struct {
	d       data.Data
	loc     data.Locator
	backend repository.Backend

	mu      sync.Mutex
	landing *landing
	done    bool
}

// Probe reports the bytes stored so far and, once they have all landed,
// their checksum.
func (t *receiver) Probe() (Progress, error) {
	t.mu.Lock()
	l, done := t.landing, t.done
	t.mu.Unlock()
	p := Progress{Total: t.d.Size, Done: done}
	if l == nil {
		if stored, err := t.backend.Size(string(t.d.UID)); err == nil {
			p.Bytes = stored
		}
		return p, nil
	}
	p.Bytes = l.stored.n.Load()
	if done {
		p.Checksum = data.ChecksumOf(l.stored.sum)
	}
	return p, nil
}

// receive runs one download attempt: fetch is handed the offset to resume
// from and the landing to write the rest to.
func (t *receiver) receive(fetch func(offset int64, w io.Writer) error) error {
	l, err := openLanding(t.backend, t.d)
	if err != nil {
		return err
	}
	t.mu.Lock()
	t.landing = l
	t.mu.Unlock()
	// A datum that is all there already has nothing left to ask for.
	if l.offset < t.d.Size || t.d.Size == 0 {
		err = fetch(l.offset, l)
	}
	if err = l.close(err); err != nil {
		return err
	}
	t.finish()
	return nil
}

func (t *receiver) finish() {
	t.mu.Lock()
	t.done = true
	t.mu.Unlock()
}

// ftpTransfer moves a datum over the ftp protocol with offset resume.
type ftpTransfer struct {
	receiver
	client *ftp.Client // guarded by receiver.mu
}

func newFTPTransfer(d data.Data, loc data.Locator, backend repository.Backend) (OOBTransfer, error) {
	return &ftpTransfer{receiver: receiver{d: d, loc: loc, backend: backend}}, nil
}

func (t *ftpTransfer) Connect() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.client != nil {
		return nil
	}
	c, err := ftp.Dial(t.loc.Host)
	if err != nil {
		return err
	}
	t.client = c
	return nil
}

func (t *ftpTransfer) Disconnect() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.client == nil {
		return nil
	}
	err := t.client.Close()
	t.client = nil
	return err
}

// connected returns the open client.
func (t *ftpTransfer) connected() (*ftp.Client, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.client == nil {
		return nil, errNotConnected
	}
	return t.client, nil
}

func (t *ftpTransfer) Receive() error {
	c, err := t.connected()
	if err != nil {
		return err
	}
	return t.receive(func(offset int64, w io.Writer) error {
		_, err := c.Retrieve(t.loc.Ref, offset, w)
		return err
	})
}

func (t *ftpTransfer) Send() error {
	c, err := t.connected()
	if err != nil {
		return err
	}
	content, size, err := repository.OpenReader(t.backend, string(t.d.UID))
	if err != nil {
		return fmt.Errorf("transfer: local content of %s: %w", t.d.UID, err)
	}
	defer content.Close()
	// Resume an interrupted upload where the server left off.
	offset, err := c.Size(t.loc.Ref)
	if err != nil || offset > size {
		offset = 0
	}
	if _, err := content.Seek(offset, io.SeekStart); err != nil {
		return err
	}
	if err := c.Store(t.loc.Ref, offset, size-offset, content); err != nil {
		return err
	}
	t.finish()
	return nil
}

// httpTransfer moves a datum over HTTP with Range resume.
type httpTransfer struct {
	receiver
	connected bool // guarded by receiver.mu
}

func newHTTPTransfer(d data.Data, loc data.Locator, backend repository.Backend) (OOBTransfer, error) {
	return &httpTransfer{receiver: receiver{d: d, loc: loc, backend: backend}}, nil
}

func (t *httpTransfer) Connect() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.connected = true // HTTP connects per request
	return nil
}

func (t *httpTransfer) Disconnect() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.connected = false
	return nil
}

func (t *httpTransfer) checkConnected() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.connected {
		return errNotConnected
	}
	return nil
}

func (t *httpTransfer) Receive() error {
	if err := t.checkConnected(); err != nil {
		return err
	}
	return t.receive(func(offset int64, w io.Writer) error {
		_, err := httpClient.Get(t.loc.Host, t.loc.Ref, offset, w)
		return err
	})
}

func (t *httpTransfer) Send() error {
	if err := t.checkConnected(); err != nil {
		return err
	}
	content, _, err := repository.OpenReader(t.backend, string(t.d.UID))
	if err != nil {
		return fmt.Errorf("transfer: local content of %s: %w", t.d.UID, err)
	}
	defer content.Close()
	if err := httpClient.Put(t.loc.Host, t.loc.Ref, content); err != nil {
		return err
	}
	t.finish()
	return nil
}

// swarmTransfer joins a collaborative swarm: Receive leeches, and after
// completion the peer keeps serving pieces until Disconnect. Send seeds the
// local content into the swarm (used by the node that issued put).
type swarmTransfer struct {
	d       data.Data
	loc     data.Locator // Host is the tracker address; Ref the data UID
	backend repository.Backend

	mu   sync.Mutex
	peer *swarm.Peer
	done bool
}

func newSwarmTransfer(d data.Data, loc data.Locator, backend repository.Backend) (OOBTransfer, error) {
	if d.Checksum == "" {
		return nil, fmt.Errorf("transfer: bittorrent needs the datum checksum as infohash (datum %s has none)", d.UID)
	}
	return &swarmTransfer{d: d, loc: loc, backend: backend}, nil
}

func (t *swarmTransfer) Connect() error { return nil } // peers start in Send/Receive

func (t *swarmTransfer) Disconnect() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.peer != nil {
		err := t.peer.Close()
		t.peer = nil
		return err
	}
	return nil
}

func (t *swarmTransfer) Probe() (Progress, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.peer == nil {
		stored, err := t.backend.Size(string(t.d.UID))
		if err != nil {
			stored = 0
		}
		return Progress{Bytes: stored, Total: t.d.Size, Done: t.done}, nil
	}
	have, total := t.peer.Progress()
	bytes := int64(0)
	if total > 0 {
		bytes = int64(float64(have) / float64(total) * float64(t.d.Size))
	}
	return Progress{Bytes: bytes, Total: t.d.Size, Done: t.done}, nil
}

func (t *swarmTransfer) Receive() error {
	meta, err := swarm.FetchMeta(t.loc.Host, t.d.Checksum)
	if err != nil {
		return fmt.Errorf("transfer: fetching swarm metainfo: %w", err)
	}
	meta.Ref = string(t.d.UID) // store under the local UID ref
	p, err := swarm.NewLeecher(t.backend, meta, t.loc.Host, "127.0.0.1:0")
	if err != nil {
		return err
	}
	t.mu.Lock()
	t.peer = p
	t.mu.Unlock()
	if err := p.Download(10 * time.Minute); err != nil {
		return err
	}
	t.mu.Lock()
	t.done = true
	t.mu.Unlock()
	return nil
}

func (t *swarmTransfer) Send() error {
	content, err := t.backend.Get(string(t.d.UID))
	if err != nil {
		return fmt.Errorf("transfer: local content of %s: %w", t.d.UID, err)
	}
	meta := swarm.NewMetainfo(string(t.d.UID), content, swarm.DefaultPieceSize)
	p, err := swarm.NewSeeder(t.backend, meta, t.loc.Host, "127.0.0.1:0")
	if err != nil {
		return err
	}
	t.mu.Lock()
	t.peer = p
	t.done = true
	t.mu.Unlock()
	return nil
}
