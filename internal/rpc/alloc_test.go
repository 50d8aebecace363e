package rpc

import (
	"testing"

	"bitdew/internal/codec"
)

// ---- Allocation-regression guard for the wire hot path ----
//
// Baselines measured on BenchmarkRPCHotPath before the splice pools and the
// server worker pool (commit introducing this file):
//
//	encode          20 allocs/op   →  2 after
//	encodeCalls64 1217 allocs/op   → 65 after
//	call (loopback) 376 allocs/op  → 31 after
//
// The acceptance bar of the perf issue is ≥25% fewer allocations per call;
// the thresholds below sit far under 75% of each baseline while leaving
// headroom over the measured post-change numbers (a GC during the run can
// evict pool entries and charge a re-warm-up), so the guard trips on a real
// regression, not on noise. CI runs this test by name as the allocation
// gate.

func TestRPCEncodeAllocAcceptance(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	args := hotCallArgs(0)

	// Warm the type's splice pools so steady state is what gets measured.
	for i := 0; i < 8; i++ {
		if _, err := codec.Marshal(args); err != nil {
			t.Fatal(err)
		}
	}
	perEncode := testing.AllocsPerRun(400, func() {
		if _, err := codec.Marshal(args); err != nil {
			t.Fatal(err)
		}
	})
	// Baseline 20; ≥25% reduction demands ≤15. Measured: 2.
	if perEncode > 6 {
		t.Errorf("encode = %.1f allocs/op, want ≤6 (baseline 20, measured 2)", perEncode)
	}

	calls := make([]*Call, 64)
	for i := range calls {
		calls[i] = NewCall("dc", "touch", hotCallArgs(i), nil)
	}
	perBatch := testing.AllocsPerRun(100, func() {
		if _, err := encodeCalls(calls); err != nil {
			t.Fatal(err)
		}
	})
	// Baseline 1217; ≥25% reduction demands ≤913. Measured: 65.
	if perBatch > 200 {
		t.Errorf("encodeCalls(64) = %.1f allocs/op, want ≤200 (baseline 1217, measured 65)", perBatch)
	}
}

// TestRPCCallAllocAcceptance guards the full loopback round trip — client
// encode, frame write, server dispatch on the worker pool, handler
// decode/encode, reply decode. AllocsPerRun counts process-wide mallocs, so
// the server side is included.
func TestRPCCallAllocAcceptance(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
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
	// Baseline 376; ≥25% reduction demands ≤282. Measured: 31.
	if perCall > 120 {
		t.Errorf("round trip = %.1f allocs/op, want ≤120 (baseline 376, measured 31)", perCall)
	}
}
