package swarm

import (
	"bytes"
	"math/rand"
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"bitdew/internal/repository"
	"bitdew/internal/rpc"
)

func randBytes(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestMetainfo(t *testing.T) {
	content := randBytes(1000, 1)
	m := NewMetainfo("ref", content, 256)
	if m.Size != 1000 || m.NumPieces() != 4 {
		t.Fatalf("meta = %+v", m)
	}
	if m.PieceLength(0) != 256 || m.PieceLength(3) != 232 {
		t.Errorf("piece lengths: %d, %d", m.PieceLength(0), m.PieceLength(3))
	}
	if err := m.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if !m.VerifyPiece(0, content[:256]) {
		t.Error("VerifyPiece(0) = false for correct content")
	}
	if m.VerifyPiece(0, content[1:257]) {
		t.Error("VerifyPiece accepted wrong content")
	}
	if m.VerifyPiece(0, content[:255]) {
		t.Error("VerifyPiece accepted short content")
	}
	if m.VerifyPiece(-1, nil) || m.VerifyPiece(4, nil) {
		t.Error("VerifyPiece accepted out-of-range index")
	}
}

func TestMetainfoExactMultiple(t *testing.T) {
	content := randBytes(512, 2)
	m := NewMetainfo("ref", content, 256)
	if m.NumPieces() != 2 || m.PieceLength(1) != 256 {
		t.Errorf("meta = %+v", m)
	}
}

func TestMetainfoEmpty(t *testing.T) {
	m := NewMetainfo("ref", nil, 256)
	if m.NumPieces() != 0 || m.Validate() != nil {
		t.Errorf("empty meta = %+v, %v", m, m.Validate())
	}
}

func TestMetainfoDefaultPieceSize(t *testing.T) {
	m := NewMetainfo("ref", randBytes(10, 3), 0)
	if m.PieceSize != DefaultPieceSize {
		t.Errorf("PieceSize = %d", m.PieceSize)
	}
}

func TestQuickMetainfoCoversContent(t *testing.T) {
	f := func(content []byte, pieceSizeSeed uint8) bool {
		pieceSize := int64(pieceSizeSeed)%64 + 1
		m := NewMetainfo("r", content, pieceSize)
		if m.Validate() != nil {
			return false
		}
		var total int64
		for i := 0; i < m.NumPieces(); i++ {
			total += m.PieceLength(i)
		}
		return total == int64(len(content))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTrackerAnnounce(t *testing.T) {
	tr, err := NewTracker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tc, err := rpc.Dial(tr.Addr(), rpc.WithCallTimeout(callTimeout))
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	announce := func(infohash, peerAddr string) ([]string, error) {
		var peers []string
		err := tc.Call(trackerService, "Announce", member{InfoHash: infohash, PeerAddr: peerAddr}, &peers)
		return peers, err
	}
	peers, err := announce("hash1", "p1:1")
	if err != nil || len(peers) != 0 {
		t.Fatalf("first announce = %v, %v", peers, err)
	}
	peers, err = announce("hash1", "p2:1")
	if err != nil || len(peers) != 1 || peers[0] != "p1:1" {
		t.Fatalf("second announce = %v, %v", peers, err)
	}
	// Swarm isolation by infohash.
	peers, _ = announce("hash2", "p3:1")
	if len(peers) != 0 {
		t.Fatalf("cross-swarm peers leaked: %v", peers)
	}
	// Leave removes.
	if err := tc.Call(trackerService, "Leave", member{InfoHash: "hash1", PeerAddr: "p1:1"}, nil); err != nil {
		t.Fatal(err)
	}
	if got := tr.Swarm("hash1"); len(got) != 1 || got[0] != "p2:1" {
		t.Fatalf("after leave: %v", got)
	}
}

// startSwarm seeds content and returns the tracker, metainfo and seeder.
func startSwarm(t *testing.T, content []byte, pieceSize int64) (*Tracker, Metainfo, *Peer) {
	t.Helper()
	tr, err := NewTracker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	backend := repository.NewMemBackend()
	backend.Put("the-data", content)
	meta := NewMetainfo("the-data", content, pieceSize)
	seeder, err := NewSeeder(backend, meta, tr.Addr(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { seeder.Close() })
	return tr, meta, seeder
}

func TestSingleLeecherDownload(t *testing.T) {
	content := randBytes(300_000, 4)
	tr, meta, _ := startSwarm(t, content, 16*1024)

	backend := repository.NewMemBackend()
	leecher, err := NewLeecher(backend, meta, tr.Addr(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer leecher.Close()
	if err := leecher.Download(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	got, err := backend.Get("the-data")
	if err != nil || !bytes.Equal(got, content) {
		t.Fatalf("downloaded %d bytes, want %d; %v", len(got), len(content), err)
	}
	if !leecher.Complete() {
		t.Error("leecher not Complete after Download")
	}
}

func TestManyLeechersSharePieces(t *testing.T) {
	content := randBytes(400_000, 5)
	tr, meta, _ := startSwarm(t, content, 32*1024)

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	backends := make([]*repository.MemBackend, n)
	for i := 0; i < n; i++ {
		backends[i] = repository.NewMemBackend()
		leecher, err := NewLeecher(backends[i], meta, tr.Addr(), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer leecher.Close()
		wg.Add(1)
		go func(i int, l *Peer) {
			defer wg.Done()
			errs[i] = l.Download(60 * time.Second)
		}(i, leecher)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("leecher %d: %v", i, errs[i])
		}
		got, err := backends[i].Get("the-data")
		if err != nil || !bytes.Equal(got, content) {
			t.Fatalf("leecher %d content mismatch (%d bytes), %v", i, len(got), err)
		}
	}
	// The swarm should now know all peers.
	if got := len(tr.Swarm(meta.InfoHash)); got < n {
		t.Errorf("tracker swarm has %d peers, want >= %d", got, n)
	}
}

func TestDownloadTimesOutWithoutSeeder(t *testing.T) {
	tr, err := NewTracker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	content := randBytes(10_000, 6)
	meta := NewMetainfo("lost", content, 1024)
	leecher, err := NewLeecher(repository.NewMemBackend(), meta, tr.Addr(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer leecher.Close()
	if err := leecher.Download(300 * time.Millisecond); err == nil {
		t.Fatal("Download with no seeder succeeded")
	}
}

// TestDownloadTimesOutPastHungPeer: a swarm member that takes the
// connection and never answers holds Download no longer than its timeout.
// The guard is below the 10 s bound of a single call, so a survey that did
// not cut its calls to the download's deadline fails too.
func TestDownloadTimesOutPastHungPeer(t *testing.T) {
	content := randBytes(64_000, 15)
	tr, meta, _ := startSwarm(t, content, 8*1024)
	// A listener nobody accepts from: the kernel completes the handshake,
	// and the request is never read, let alone answered.
	hung, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hung.Close()
	tc, err := rpc.Dial(tr.Addr(), rpc.WithCallTimeout(callTimeout))
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	if err := tc.Call(trackerService, "Announce", member{InfoHash: meta.InfoHash, PeerAddr: hung.Addr().String()}, nil); err != nil {
		t.Fatal(err)
	}
	leecher, err := NewLeecher(repository.NewMemBackend(), meta, tr.Addr(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer leecher.Close()

	const timeout = 300 * time.Millisecond
	start := time.Now()
	done := make(chan error, 1)
	go func() { done <- leecher.Download(timeout) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Download reported success although a surveyed peer never answered within its timeout")
		}
		t.Logf("Download(%v) returned after %v: %v", timeout, time.Since(start), err)
	case <-time.After(5 * time.Second):
		t.Fatalf("Download(%v) still blocks after 5s on a peer that never answers", timeout)
	}
}

func TestSeederRequiresContent(t *testing.T) {
	tr, err := NewTracker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	meta := NewMetainfo("absent", randBytes(100, 7), 64)
	if _, err := NewSeeder(repository.NewMemBackend(), meta, tr.Addr(), "127.0.0.1:0"); err == nil {
		t.Fatal("seeder without content started")
	}
}

func TestCorruptSeederRejected(t *testing.T) {
	// A peer serving tampered pieces must not poison the leecher: piece
	// verification rejects them (the sabotage-tolerance point of §2.2).
	content := randBytes(64_000, 8)
	tr, meta, _ := startSwarm(t, content, 8*1024)

	// Evil peer: holds content of the right size but different bytes,
	// claiming the same metainfo.
	evil := repository.NewMemBackend()
	evilContent := randBytes(64_000, 9)
	evil.Put("the-data", evilContent)
	evilPeer, err := newPeer(evil, meta, tr.Addr(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	evilPeer.store.markAllFrom(evilContent)
	if err := evilPeer.announce(); err != nil {
		t.Fatal(err)
	}
	defer evilPeer.Close()

	backend := repository.NewMemBackend()
	leecher, err := NewLeecher(backend, meta, tr.Addr(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer leecher.Close()
	if err := leecher.Download(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	got, _ := backend.Get("the-data")
	if !bytes.Equal(got, content) {
		t.Fatal("leecher accepted corrupt pieces")
	}
}

func TestLateLeecherJoinsLiveSwarm(t *testing.T) {
	content := randBytes(200_000, 10)
	tr, meta, _ := startSwarm(t, content, 16*1024)

	first, err := NewLeecher(repository.NewMemBackend(), meta, tr.Addr(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	if err := first.Download(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Second leecher can now draw pieces from two sources.
	b2 := repository.NewMemBackend()
	second, err := NewLeecher(b2, meta, tr.Addr(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	if err := second.Download(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	got, _ := b2.Get("the-data")
	if !bytes.Equal(got, content) {
		t.Fatal("late leecher content mismatch")
	}
}

func TestProgressReporting(t *testing.T) {
	content := randBytes(50_000, 11)
	_, meta, seeder := startSwarm(t, content, 4096)
	have, total := seeder.Progress()
	if have != total || total != meta.NumPieces() {
		t.Errorf("seeder progress = %d/%d, want %d/%d", have, total, meta.NumPieces(), meta.NumPieces())
	}
	if seeder.Addr() == "" {
		t.Error("seeder has no address")
	}
}

func TestFetchMeta(t *testing.T) {
	content := randBytes(10_000, 12)
	tr, meta, _ := startSwarm(t, content, 1024)
	got, err := FetchMeta(tr.Addr(), meta.InfoHash)
	if err != nil {
		t.Fatal(err)
	}
	if got.InfoHash != meta.InfoHash || got.Size != meta.Size || got.NumPieces() != meta.NumPieces() {
		t.Errorf("FetchMeta = %+v, want %+v", got, meta)
	}
	if _, err := FetchMeta(tr.Addr(), "unknown-hash"); err == nil {
		t.Error("FetchMeta for unknown infohash succeeded")
	}
}

func TestSwarmSurvivesSeederDeparture(t *testing.T) {
	// Once one leecher completes, the original seeder can leave and later
	// leechers still finish from the surviving peer — the churn resilience
	// that motivates collaborative distribution on volatile hosts.
	content := randBytes(150_000, 13)
	tr, meta, seeder := startSwarm(t, content, 8*1024)

	first, err := NewLeecher(repository.NewMemBackend(), meta, tr.Addr(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	if err := first.Download(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	seeder.Close() // the origin disappears

	b2 := repository.NewMemBackend()
	second, err := NewLeecher(b2, meta, tr.Addr(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	if err := second.Download(30 * time.Second); err != nil {
		t.Fatalf("download after seeder departure: %v", err)
	}
	got, _ := b2.Get("the-data")
	if !bytes.Equal(got, content) {
		t.Fatal("content mismatch after seeder departure")
	}
}

func TestRandomPieceSelectionStillCompletes(t *testing.T) {
	content := randBytes(80_000, 14)
	tr, meta, _ := startSwarm(t, content, 8*1024)
	backend := repository.NewMemBackend()
	leecher, err := NewLeecher(backend, meta, tr.Addr(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer leecher.Close()
	leecher.RandomPieces = true
	if err := leecher.Download(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	got, _ := backend.Get("the-data")
	if !bytes.Equal(got, content) {
		t.Fatal("random-selection content mismatch")
	}
}
