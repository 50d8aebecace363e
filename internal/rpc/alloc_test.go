package rpc

import (
	"testing"
	"time"

	"bitdew/internal/codec"
)

// ---- Allocation-regression guard for the wire hot path ----
//
// Measured on BenchmarkRPCHotPath, allocations per op:
//
//	                   fresh gob   splice pool   schema codec, call slots
//	encode                    20             2                          2
//	64 batch items          1217            65                          0
//	call (loopback)          376            31                         10
//
// What is left of a call is its values: the argument boxed by the caller and
// its three fields decoded by the handler, the reply boxed, encoded and its
// one string decoded, the reply blob, the handler's argument. The frame, the
// request, the reply channel, the deadline timer and the method lookup cost
// nothing once a slot and a job are warm. The bars are the measured numbers
// plus a quarter; CI runs these tests by name as the allocation gate.

func TestRPCEncodeAllocAcceptance(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	args := hotCallArgs(0)
	perEncode := testing.AllocsPerRun(400, func() {
		if _, err := codec.Marshal(args); err != nil {
			t.Fatal(err)
		}
	})
	if perEncode > 2.5 {
		t.Errorf("encode = %.1f allocs/op, want ≤ 2.5 (measured 2: the boxed argument, the blob)", perEncode)
	}

	calls := make([]*Call, 64)
	for i := range calls {
		calls[i] = NewCall("dc", "touch", hotCallArgs(i), nil)
	}
	items, err := appendItems(nil, calls)
	if err != nil {
		t.Fatal(err)
	}
	perBatch := testing.AllocsPerRun(100, func() {
		if items, err = appendItems(items[:0], calls); err != nil {
			t.Fatal(err)
		}
	})
	if perBatch > 0 {
		t.Errorf("appendItems(64) into a warm slot = %.1f allocs/op, want 0", perBatch)
	}
}

// TestRPCCallAllocAcceptance guards the full loopback round trip — client
// encode, frame write, server dispatch on the worker pool, handler
// decode/encode, reply decode — on a connection with a call deadline armed,
// as every connection of the plane has: the slot's timer is reset, not made.
// AllocsPerRun counts process-wide mallocs, so the server side is included.
func TestRPCCallAllocAcceptance(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	srv, err := Listen("127.0.0.1:0", hotMux())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr(), WithCallTimeout(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	args := hotCallArgs(0)
	for i := 0; i < 16; i++ {
		var r hotReply
		if err := c.Call("dc", "touch", args, &r); err != nil {
			t.Fatal(err)
		}
	}
	perCall := testing.AllocsPerRun(300, func() {
		var r hotReply
		if err := c.Call("dc", "touch", args, &r); err != nil {
			t.Fatal(err)
		}
	})
	if perCall > 12.5 {
		t.Errorf("round trip = %.1f allocs/op, want ≤ 12.5 (measured 10, 31 through gob)", perCall)
	}
}
