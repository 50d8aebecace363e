// Fixture for the deadlines analyzer's loop half: no retries-forever loops, even
// when the blocking call hides behind helper functions — local ones or
// imported ones carrying the BlocksOnRPC fact.
package deadlineprop

import (
	"context"
	"time"

	"deadlinehelp"
	"rpc"
)

func retriesForever(c rpc.Client) { // want fact:"BlocksOnRPC\\(rpc Call\\)"
	for {
		if err := c.Call("a", "b", nil, nil); err == nil { // want "rpc Call inside an unbounded for-loop with no deadline"
			return
		}
	}
}

func pollsForever(ready func() bool) { // want fact:"BlocksOnRPC\\(time.Sleep polling\\)"
	for {
		if ready() {
			return
		}
		time.Sleep(time.Millisecond) // want "time.Sleep polling inside an unbounded for-loop with no deadline"
	}
}

func redialForever() { // want fact:"BlocksOnRPC\\(rpc.DialAuto\\)"
	for {
		if _, err := rpc.DialAuto("addr", rpc.WithCallTimeout(time.Second)); err == nil { // want "rpc.DialAuto inside an unbounded for-loop with no deadline"
			return
		}
	}
}

// fetchOne hides the blocking call one frame deep.
func fetchOne(c rpc.Client) error { // want fact:"BlocksOnRPC\\(rpc Call\\)"
	return c.Call("store", "get", nil, nil)
}

func retriesViaHelper(c rpc.Client) { // want fact:"BlocksOnRPC\\(fetchOne → rpc Call\\)"
	for {
		if fetchOne(c) == nil { // want "call to deadlineprop.fetchOne \\(blocks on rpc via fetchOne → rpc Call\\) inside an unbounded for-loop with no deadline"
			return
		}
	}
}

func retriesViaImport(c rpc.Client) { // want fact:"BlocksOnRPC\\(FetchOne → rpc Call\\)"
	for {
		if deadlinehelp.FetchOne(c) == nil { // want "call to deadlinehelp.FetchOne \\(blocks on rpc via FetchOne → rpc Call\\) inside an unbounded for-loop with no deadline"
			return
		}
	}
}

// spawnsHelper launches the helper on its own goroutine: the loop itself
// never blocks on rpc, and the fact does not propagate through go.
func spawnsHelper(c rpc.Client, stop chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		go fetchOne(c)
		return
	}
}

func boundedAttempts(c rpc.Client) { // want fact:"BlocksOnRPC\\(rpc Call\\)"
	for i := 0; i < 5; i++ {
		if err := c.Call("a", "b", nil, nil); err == nil {
			return
		}
	}
}

func timeBudget(c rpc.Client) { // want fact:"BlocksOnRPC\\(rpc Call\\)"
	deadline := time.Now().Add(time.Second)
	for {
		if err := c.Call("a", "b", nil, nil); err == nil {
			return
		}
		if time.Now().After(deadline) {
			return
		}
	}
}

func stopChannel(c rpc.Client, stop chan struct{}) { // want fact:"BlocksOnRPC\\(rpc Call\\)"
	for {
		select {
		case <-stop:
			return
		default:
		}
		if err := c.Call("a", "b", nil, nil); err == nil {
			return
		}
	}
}

func contextBound(ctx context.Context, c rpc.Client) { // want fact:"BlocksOnRPC\\(rpc Call\\)"
	for {
		if ctx.Err() != nil {
			return
		}
		if err := c.Call("a", "b", nil, nil); err == nil {
			return
		}
	}
}

func pacedByChannel(c rpc.Client, tick chan struct{}) { // want fact:"BlocksOnRPC\\(rpc Call\\)"
	for {
		<-tick
		_ = c.Call("a", "b", nil, nil)
	}
}

// boundedViaHelper: helper-wrapped blocking is fine inside a bounded loop.
func boundedViaHelper(c rpc.Client) { // want fact:"BlocksOnRPC\\(fetchOne → rpc Call\\)"
	for i := 0; i < 3; i++ {
		if fetchOne(c) == nil {
			return
		}
	}
}
