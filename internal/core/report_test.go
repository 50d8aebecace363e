package core_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"bitdew/internal/core"
	"bitdew/internal/data"
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

// TestReportPutUploadFailure: when an upload fails, the put's one frame
// still carries both transfers' DT reports — the failure is on record — and
// no locator is published for content that never arrived: the datum that
// landed has its home repository's locator, the lost one none, and the error
// names the lost one.
func TestReportPutUploadFailure(t *testing.T) {
	h := newHarness(t, true)
	comms := h.comms()
	backend := &dropBackend{MemBackend: repository.NewMemBackend()}
	n, err := core.NewNode(core.NodeConfig{Host: "client", Comms: comms, Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	n.Transfers.SetMaxAttempts(1)
	ds, err := n.BitDew.CreateDataBatch([]string{"lands", "lost", "warm"})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.BitDew.Put(ds[2], []byte("warms the slot")); err != nil {
		t.Fatal(err)
	}
	ds = ds[:2]
	backend.drop = string(ds[1].UID)

	_, before := h.c.DT.Stats()
	base := comms.RoundTrips()
	err = n.BitDew.PutAll(ds, [][]byte{[]byte("content"), []byte("gone")})
	if err == nil || !strings.Contains(err.Error(), "put lost:") || strings.Contains(err.Error(), "put lands") {
		t.Fatalf("PutAll with an upload that had nothing to send = %v, want an error naming lost alone", err)
	}
	if got := comms.RoundTrips() - base; got != 1 {
		t.Errorf("the failed put cost %d frames, want 1", got)
	}
	if _, after := h.c.DT.Stats(); after-before != 2 {
		t.Errorf("the DT heard %d reports, want 2 (one per upload)", after-before)
	}
	if act := h.c.DT.Active(); len(act) != 0 {
		t.Errorf("transfers still in flight at the DT after the put returned: %+v", act)
	}
	home := data.Locator{DataUID: ds[0].UID, Protocol: core.UploadProtocol, Host: h.c.HTTP.Addr(), Ref: string(ds[0].UID)}
	if locs, err := h.c.DC.Locators(ds[0].UID); err != nil || len(locs) != 1 || locs[0] != home {
		t.Errorf("%s has locators %v (%v), want its home repository's alone: %s", ds[0].Name, locs, err, home)
	}
	if locs, err := h.c.DC.Locators(ds[1].UID); err != nil || len(locs) != 0 {
		t.Errorf("%s has locators %v (%v) though its content never arrived", ds[1].Name, locs, err)
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
