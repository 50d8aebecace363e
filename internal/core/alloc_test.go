package core_test

import (
	"bytes"
	"runtime"
	"testing"

	"bitdew/internal/core"
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
	put, fetch := putFetchAlloc(t, newHarness(t, true).node("client"), randBytes(payload, 77), 4)
	if got := put / payload; got > 3.5 {
		t.Errorf("an 8 MiB put allocates %.2f payloads, want ≤ 3.5 (measured 2.0, 8.0 before streaming)", got)
	}
	if got := fetch / payload; got > 2.5 {
		t.Errorf("an 8 MiB fetch allocates %.2f payloads, want ≤ 2.5 (measured 2.0, 7.9 before streaming)", got)
	}
}

// TestSmallOpAllocAcceptance guards the small end of the same chain, where
// the cost is rows and frames, not bytes: what a 256 B put and fetch
// allocate on a 2-shard plane, every service included. With a fresh gob
// decoder per stored row and per mismatched rpc argument these were 53.6 and
// 28.5 KB; with every standalone blob on the warm codec (internal/codec)
// 22.5 and 14.5 KB; with the DT report batched 19.4 and 12.3 KB, of which
// net/http's per-exchange bookkeeping was 6.6 and 6.9 KB; with httpx
// speaking HTTP/1.1 itself 12.8 and 5.4 KB, of which gob describing types
// both ends share was more than half; with the schema codec and pooled rpc
// call slots 5.5 and 3.5 KB. The bars are those plus a quarter. CI runs this
// test by name, without -race.
func TestSmallOpAllocAcceptance(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	n := newShardedHarness(t, 2).node("client")
	n.SetClientOnly(true)
	put, fetch := putFetchAlloc(t, n, randBytes(256, 78), 500)
	if got := put / 1024; got > 6.8 {
		t.Errorf("a 256 B put allocates %.1f KB, want ≤ 6.8 (measured 5.5, 12.8 through gob)", got)
	}
	if got := fetch / 1024; got > 4.4 {
		t.Errorf("a 256 B fetch allocates %.1f KB, want ≤ 4.4 (measured 3.5, 5.4 through gob)", got)
	}
}

// putFetchAlloc returns the process-wide TotalAlloc delta, in bytes per op,
// of putting content through n and of fetching it back after dropping the
// local copy — each measured over runs ops, after one that pays for
// connections, pools and lazily built tables.
func putFetchAlloc(t *testing.T, n *core.Node, content []byte, runs int) (put, fetch float64) {
	t.Helper()
	d, err := n.BitDew.CreateData("alloc")
	if err != nil {
		t.Fatal(err)
	}
	perOp := func(op func()) float64 {
		op()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			op()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
	}
	put = perOp(func() {
		if err := n.BitDew.Put(d, content); err != nil {
			t.Fatal(err)
		}
	})
	fetch = perOp(func() {
		if err := n.Backend().Delete(string(d.UID)); err != nil {
			t.Fatal(err)
		}
		got, err := n.BitDew.GetBytes(*d)
		if err != nil || !bytes.Equal(got, content) {
			t.Fatalf("fetch: %d bytes, %v", len(got), err)
		}
	})
	return put, fetch
}
