package core_test

import (
	"bytes"
	"runtime"
	"testing"
)

// TestTransferAllocAcceptance guards the streaming content path: moving an
// 8 MiB datum may allocate one payload-sized buffer per hop and nothing
// proportional to the payload in between.
//
// A put holds two: the caller's local copy (Put's copy-in contract) and the
// repository's stored copy, reserved once from Content-Length. A fetch holds
// two: the local copy the download lands in and the one GetBytes hands out
// (its copy-out contract). Before content streamed, the same put allocated
// 8.0 payloads (io.ReadAll regrowing the request body, a Get per Send) and
// the fetch 7.9 (Append regrowing the local copy, a GetRange per 64 KiB
// served, a Get to verify). The bars leave the fixed cost of the ops and one
// stray 32 KiB copy buffer well inside them, and trip on one more
// payload-sized buffer. CI runs this test by name, without -race.
func TestTransferAllocAcceptance(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	const payload = 8 << 20
	h := newHarness(t, true)
	n := h.node("client")
	content := randBytes(payload, 77)
	d, err := n.BitDew.CreateData("bulk")
	if err != nil {
		t.Fatal(err)
	}
	put := func() {
		if err := n.BitDew.Put(d, content); err != nil {
			t.Fatal(err)
		}
	}
	fetch := func() {
		if err := n.Backend().Delete(string(d.UID)); err != nil {
			t.Fatal(err)
		}
		got, err := n.BitDew.GetBytes(*d)
		if err != nil || !bytes.Equal(got, content) {
			t.Fatalf("fetch: %d bytes, %v", len(got), err)
		}
	}
	// perOp is the process-wide TotalAlloc delta per run of op, in payloads.
	perOp := func(op func()) float64 {
		op() // connections, pools, lazily built tables
		const runs = 4
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			op()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs / payload
	}
	if got := perOp(put); got > 3.5 {
		t.Errorf("an 8 MiB put allocates %.2f payloads, want ≤ 3.5 (measured 2.0, 8.0 before streaming)", got)
	}
	if got := perOp(fetch); got > 2.5 {
		t.Errorf("an 8 MiB fetch allocates %.2f payloads, want ≤ 2.5 (measured 2.0, 7.9 before streaming)", got)
	}
}
