package rpc

import (
	"fmt"
	"sync"
	"testing"
)

// TestRoundTripCounterConcurrent hammers one dialled client from many
// goroutines mixing Call, CallBatch and RoundTrips reads — run under -race
// (CI does) this pins that the frame counter and everything on the shared
// connection path (sequence numbers, pending map, slot and job pools, the
// server's worker pool) are safe under exactly the concurrency the
// sustained-load harness generates. It also checks the counter's
// arithmetic: each Call is one frame, each CallBatch one frame regardless
// of size.
func TestRoundTripCounterConcurrent(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", hotMux())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bc := c.(BatchCaller)

	const (
		goroutines = 16
		iterations = 50
		batchSize  = 8
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				switch i % 3 {
				case 0, 1:
					var r hotReply
					if err := c.Call("dc", "touch", hotArgs{UID: fmt.Sprintf("g%d-%d", g, i)}, &r); err != nil {
						t.Errorf("call: %v", err)
						return
					}
				case 2:
					calls := make([]*Call, batchSize)
					replies := make([]hotReply, batchSize)
					for j := range calls {
						calls[j] = NewCall("dc", "touch", hotArgs{UID: fmt.Sprintf("g%d-%d-%d", g, i, j)}, &replies[j])
					}
					if err := bc.CallBatch(calls); err != nil {
						t.Errorf("batch: %v", err)
						return
					}
					if err := FirstError(calls); err != nil {
						t.Errorf("batch call: %v", err)
						return
					}
				}
				// Interleave reads with the writes they race against.
				if _, ok := RoundTrips(c); !ok {
					t.Error("client lost its counter")
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// 2 of every 3 iterations are single calls (1 frame each), 1 of 3 is a
	// batch (1 frame regardless of its 8 calls).
	perG := uint64(0)
	for i := 0; i < iterations; i++ {
		perG++
	}
	want := uint64(goroutines) * perG
	got, ok := RoundTrips(c)
	if !ok {
		t.Fatal("client does not count round trips")
	}
	if got != want {
		t.Fatalf("RoundTrips = %d, want %d (batches must cost one frame)", got, want)
	}
}
