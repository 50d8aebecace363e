package netsrv_test

import (
	"net"
	"testing"
	"time"

	"bitdew/internal/db"
	"bitdew/internal/protocols/ftp"
	"bitdew/internal/protocols/httpx"
	"bitdew/internal/protocols/swarm"
	"bitdew/internal/repository"
	"bitdew/internal/rpc"
)

type server interface {
	Addr() string
	Close() error
}

// TestCloseAfterDialReturns runs each of the plane's network servers
// through rounds of a client's dial followed at once by Close: the
// connection reaches the accept loop while Close runs, so some rounds put
// the accept in front of Close's sweep and some behind it. Every Close must
// return while the client still holds its end open; the deadline only
// decides when a Close has failed, and the client's hang-up then lets it
// return so the next round can run.
func TestCloseAfterDialReturns(t *testing.T) {
	const rounds = 500
	const deadline = 2 * time.Second
	const addr = "127.0.0.1:0"
	// A swarm peer needs a tracker to announce to.
	tracker, err := swarm.NewTracker(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer tracker.Close()
	meta := swarm.NewMetainfo("f", []byte("content"), 4)
	for _, s := range []struct {
		name  string
		start func() (server, error)
	}{
		{"rpc", func() (server, error) { return rpc.Listen(addr, rpc.NewMux()) }},
		{"httpx", func() (server, error) { return httpx.NewServer(repository.NewMemBackend(), addr) }},
		{"ftp", func() (server, error) { return ftp.NewServer(repository.NewMemBackend(), addr) }},
		{"tracker", func() (server, error) { return swarm.NewTracker(addr) }},
		{"peer", func() (server, error) {
			return swarm.NewLeecher(repository.NewMemBackend(), meta, tracker.Addr(), addr)
		}},
		{"db", func() (server, error) { return db.NewServer(db.NewRowStore(), addr) }},
	} {
		start := s.start
		t.Run(s.name, func(t *testing.T) {
			hung, i := 0, 0
			for ; i < rounds && hung < 3; i++ {
				srv, err := start()
				if err != nil {
					t.Fatal(err)
				}
				conn, err := net.Dial("tcp", srv.Addr())
				if err != nil {
					t.Fatal(err)
				}
				// Hang up with a reset: thousands of rounds leave no
				// TIME_WAIT sockets to crowd the port range.
				conn.(*net.TCPConn).SetLinger(0)
				closed := make(chan error, 1)
				go func() { closed <- srv.Close() }()
				timer := time.NewTimer(deadline)
				select {
				case <-closed:
				case <-timer.C:
					hung++
					conn.Close()
					<-closed
				}
				timer.Stop()
				conn.Close()
			}
			if hung > 0 {
				t.Errorf("Close outlived %v in %d of %d rounds while the client held its connection", deadline, hung, i)
			}
		})
	}
}
