package transfer

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"bitdew/internal/data"
	"bitdew/internal/repository"
)

// TestDownloadAfterWaitIsFresh is the regression test for the inflight
// slot: once Wait has returned, the next Download of the datum must be a
// transfer of its own. The slot used to be cleared only after the finished
// transfer's goroutine got the engine lock again, so a caller that dropped
// its copy and fetched again could be handed the finished handle — success,
// and no content. Under -race the old order lost within some dozens of
// rounds of this loop, without it within some thousands.
func TestDownloadAfterWaitIsFresh(t *testing.T) {
	f := newFixture(t)
	content := randBytes(2_000, 40)
	d := f.seed("again", content)
	loc := f.locator(d, "http")

	local := repository.NewMemBackend()
	e := NewEngine(local, nil, "w", 2)
	var last *Handle
	for i := 0; i < 3000; i++ {
		h := e.Download(d, loc)
		if h == last {
			t.Fatalf("fetch %d was handed the finished handle of fetch %d", i, i-1)
		}
		if err := h.Wait(); err != nil {
			t.Fatal(err)
		}
		if got, err := local.Get(string(d.UID)); err != nil || !bytes.Equal(got, content) {
			t.Fatalf("fetch %d: %d bytes, %v", i, len(got), err)
		}
		local.Delete(string(d.UID))
		last = h
	}
}

// TestHandlesArePruned: the engine keeps the transfers in flight and the
// last finished one per datum, not every handle it ever started.
func TestHandlesArePruned(t *testing.T) {
	d := *data.NewFromBytes("ring", []byte("x"))
	local := repository.NewMemBackend()
	local.Put(string(d.UID), []byte("x"))
	// An unregistered protocol ends a transfer at once, with no server.
	loc := data.Locator{DataUID: d.UID, Protocol: "none", Host: "nowhere", Ref: string(d.UID)}
	e := NewEngine(local, nil, "w", 4)
	for i := 0; i < 10_000; i++ {
		e.Upload(d, loc)
		if i%100 == 0 {
			e.WaitFor(d.UID)
		}
	}
	if err := e.WaitFor(d.UID); err == nil {
		t.Error("WaitFor lost the last finished transfer's error")
	}
	e.mu.Lock()
	n, inflight := len(e.handles[d.UID]), len(e.inflight)
	e.mu.Unlock()
	if n != 1 || inflight != 0 {
		t.Fatalf("after 10000 transfers of one datum the engine holds %d handles and %d inflight slots, want 1 and 0", n, inflight)
	}
}

// TestForgetDropsHandles: a forgotten datum leaves no handle in the engine,
// whether its transfer had ended or was still waiting for a slot when Forget
// came, and WaitFor on it returns nil at once.
func TestForgetDropsHandles(t *testing.T) {
	local := repository.NewMemBackend()
	e := NewEngine(local, nil, "w", 1)
	for i := 0; i < 50; i++ {
		d := *data.NewFromBytes(fmt.Sprintf("d%02d", i), []byte("x"))
		local.Put(string(d.UID), []byte("x"))
		// An unregistered protocol ends a transfer at once, with no server.
		loc := data.Locator{DataUID: d.UID, Protocol: "none", Host: "nowhere", Ref: string(d.UID)}
		running := i%2 == 1
		if running {
			e.sem <- struct{}{} // hold the one slot: the transfer cannot start
		}
		h := e.Upload(d, loc)
		if !running {
			h.Wait()
		}
		e.Forget(d.UID)
		if running {
			<-e.sem
		}
		if h.Wait() == nil {
			t.Fatal("an upload to nowhere succeeded")
		}
		if err := e.WaitFor(d.UID); err != nil {
			t.Fatalf("WaitFor a forgotten datum = %v, want nil", err)
		}
	}
	e.mu.Lock()
	n := len(e.handles)
	e.mu.Unlock()
	if n != 0 {
		t.Fatalf("after 50 forgotten data the engine holds handles of %d", n)
	}
}

// TestResumedDownloadVerifiesStreamedSum: a download that resumes from a
// stored prefix is verified against the MD5 of prefix plus stream, so a
// good prefix completes in one attempt and a corrupt byte in the prefix —
// which this attempt never fetched — is still caught.
func TestResumedDownloadVerifiesStreamedSum(t *testing.T) {
	for _, proto := range []string{"http", "ftp"} {
		t.Run(proto, func(t *testing.T) {
			f := newFixture(t)
			content := randBytes(90_000, 41)
			d := f.seed("resumed", content)
			loc := f.locator(d, proto)
			ref := string(d.UID)

			local := repository.NewMemBackend()
			e := NewEngine(local, nil, "w", 1)
			e.MaxAttempts = 1
			local.Put(ref, content[:30_000])
			if err := e.Download(d, loc).Wait(); err != nil {
				t.Fatalf("resume from a good prefix: %v", err)
			}
			if got, _ := local.Get(ref); !bytes.Equal(got, content) {
				t.Fatal("resumed content differs")
			}

			corrupt := append([]byte(nil), content[:30_000]...)
			corrupt[12_345] ^= 0xff
			local.Put(ref, corrupt)
			err := e.Download(d, loc).Wait()
			if err == nil || !strings.Contains(err.Error(), "checksum") {
				t.Fatalf("resume from a corrupt prefix = %v, want a checksum failure", err)
			}
			if _, err := local.Size(ref); err == nil {
				t.Error("corrupt content left in local storage")
			}

			// With attempts to spare, the engine discards it and starts over.
			e.MaxAttempts = 2
			local.Put(ref, corrupt)
			if err := e.Download(d, loc).Wait(); err != nil {
				t.Fatalf("retry after a corrupt prefix: %v", err)
			}
			if got, _ := local.Get(ref); !bytes.Equal(got, content) {
				t.Fatal("content after the retry differs")
			}

			// A complete local copy is verified without asking for a byte.
			if err := e.Download(d, loc).Wait(); err != nil {
				t.Fatalf("download over a complete copy: %v", err)
			}
		})
	}
}

// TestFailedDownloadKeepsStoredContent: an attempt that dies before its
// first byte must not publish an empty copy over what is stored.
func TestFailedDownloadKeepsStoredContent(t *testing.T) {
	f := newFixture(t)
	content := randBytes(5_000, 42)
	d := f.seed("kept", content)
	local := repository.NewMemBackend()
	// A stale, larger copy: the download starts over from zero.
	stale := randBytes(9_000, 43)
	local.Put(string(d.UID), stale)
	e := NewEngine(local, nil, "w", 1)
	e.MaxAttempts = 1
	missing := data.Locator{DataUID: d.UID, Protocol: "http", Host: f.httpSrv.Addr(), Ref: "no-such-ref"}
	if err := e.Download(d, missing).Wait(); err == nil {
		t.Fatal("download of a missing ref succeeded")
	}
	if got, err := local.Get(string(d.UID)); err != nil || !bytes.Equal(got, stale) {
		t.Fatalf("after the failed attempt local storage holds %d bytes, %v; want what was there", len(got), err)
	}
	if err := e.Download(d, f.locator(d, "http")).Wait(); err != nil {
		t.Fatal(err)
	}
	if got, _ := local.Get(string(d.UID)); !bytes.Equal(got, content) {
		t.Fatal("download over a stale copy differs")
	}
}
