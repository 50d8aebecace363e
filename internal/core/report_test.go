package core_test

import (
	"bytes"
	"errors"
	"testing"

	"bitdew/internal/core"
	"bitdew/internal/repository"
	"bitdew/internal/rpc"
	"bitdew/internal/transfer"
)

// dropBackend loses the content of one ref on its way into local storage, so
// that datum's upload finds nothing to send.
type dropBackend struct {
	*repository.MemBackend
	drop string
}

func (b *dropBackend) Put(ref string, content []byte) error {
	if ref == b.drop {
		return nil
	}
	return b.MemBackend.Put(ref, content)
}

// TestReportPutUploadFailure: when an upload fails, the put's second frame
// carries the transfers' DT reports alone — the failure is on record, and no
// locator is published for content that never arrived.
func TestReportPutUploadFailure(t *testing.T) {
	h := newHarness(t, true)
	comms := h.comms()
	backend := &dropBackend{MemBackend: repository.NewMemBackend()}
	n, err := core.NewNode(core.NodeConfig{Host: "client", Comms: comms, Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	n.Transfers.SetMaxAttempts(1)
	ds, err := n.BitDew.CreateDataBatch([]string{"lands", "lost"})
	if err != nil {
		t.Fatal(err)
	}
	backend.drop = string(ds[1].UID)

	_, before := h.c.DT.Stats()
	base := comms.RoundTrips()
	if err := n.BitDew.PutAll(ds, [][]byte{[]byte("content"), []byte("gone")}); err == nil {
		t.Fatal("PutAll succeeded with an upload that had nothing to send")
	}
	if got := comms.RoundTrips() - base; got != 2 {
		t.Errorf("the failed put cost %d frames, want 2", got)
	}
	if _, after := h.c.DT.Stats(); after-before != 2 {
		t.Errorf("the DT heard %d reports, want 2 (one per upload)", after-before)
	}
	if act := h.c.DT.Active(); len(act) != 0 {
		t.Errorf("transfers still in flight at the DT after the put returned: %+v", act)
	}
	for _, d := range ds {
		if locs, err := h.c.DC.Locators(d.UID); err != nil || len(locs) != 0 {
			t.Errorf("%s has locators %v (%v) after a failed put: nothing may be published", d.Name, locs, err)
		}
	}
}

// TestReportDTRefusesOrUnreachable: the DT is monitoring only. A service that
// refuses every report (a parent-built one does: it knows no transfer it did
// not open itself), or a DT connection that is gone, fails no put and no
// fetch.
func TestReportDTRefusesOrUnreachable(t *testing.T) {
	content := randBytes(4_000, 91)
	roundTrip := func(t *testing.T, n *core.Node) {
		t.Helper()
		d, err := n.BitDew.CreateData("payload")
		if err != nil {
			t.Fatal(err)
		}
		if err := n.BitDew.Put(d, content); err != nil {
			t.Fatalf("put: %v", err)
		}
		if err := n.Backend().Delete(string(d.UID)); err != nil {
			t.Fatal(err)
		}
		if got, err := n.BitDew.GetBytes(*d); err != nil || !bytes.Equal(got, content) {
			t.Fatalf("fetch: %d bytes, %v", len(got), err)
		}
	}

	t.Run("refuses", func(t *testing.T) {
		h := newHarness(t, true)
		h.c.Mux.Handle(transfer.ServiceName, "Report", func([]byte) ([]byte, error) {
			return nil, errors.New("transfer: unknown transfer")
		})
		roundTrip(t, h.node("client"))
	})
	t.Run("unreachable", func(t *testing.T) {
		h := newHarness(t, true)
		comms := h.comms()
		dead := rpc.NewLocalClient(rpc.NewMux(), 0)
		dead.Close()
		comms.DT = transfer.NewClient(dead)
		n, err := core.NewNode(core.NodeConfig{Host: "client", Comms: comms})
		if err != nil {
			t.Fatal(err)
		}
		roundTrip(t, n)
	})
}
