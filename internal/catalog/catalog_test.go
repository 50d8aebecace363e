package catalog

import (
	"encoding/hex"
	"errors"
	"fmt"
	"testing"
	"time"

	"bitdew/internal/data"
	"bitdew/internal/db"
	"bitdew/internal/dht"
	"bitdew/internal/rpc"
)

func newService() *Service {
	return NewService(db.NewRowStore())
}

func TestRegisterGetDelete(t *testing.T) {
	s := newService()
	d := *data.NewFromBytes("file.bin", []byte("content"))
	if err := s.Register(d); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(d.UID)
	if err != nil {
		t.Fatal(err)
	}
	if got.UID != d.UID || got.Name != d.Name || got.Checksum != d.Checksum || got.Size != d.Size {
		t.Errorf("Get = %+v, want %+v", got, d)
	}
	if err := s.Delete(d.UID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(d.UID); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after Delete: %v, want ErrNotFound", err)
	}
	// Idempotent delete.
	if err := s.Delete(d.UID); err != nil {
		t.Errorf("second Delete: %v", err)
	}
}

func TestRegisterRequiresUID(t *testing.T) {
	s := newService()
	if err := s.Register(data.Data{Name: "anon"}); err == nil {
		t.Error("Register without UID succeeded")
	}
}

func TestRegisterUpdatesMeta(t *testing.T) {
	s := newService()
	d := data.New("slot")
	if err := s.Register(*d); err != nil {
		t.Fatal(err)
	}
	filled := d.WithContent([]byte("now full"))
	if err := s.Register(*filled); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(d.UID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size != int64(len("now full")) {
		t.Errorf("updated Size = %d", got.Size)
	}
}

func TestSearchByName(t *testing.T) {
	s := newService()
	for i := 0; i < 3; i++ {
		s.Register(*data.NewFromBytes("shared-name", []byte(fmt.Sprint(i))))
	}
	s.Register(*data.NewFromBytes("other", nil))
	got, err := s.SearchByName("shared-name")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Errorf("found %d, want 3", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].UID >= got[i].UID {
			t.Errorf("results not sorted by UID")
		}
	}
	none, _ := s.SearchByName("absent")
	if len(none) != 0 {
		t.Errorf("search for absent name returned %v", none)
	}
}

func TestSearchByPrefixAndAll(t *testing.T) {
	s := newService()
	s.Register(*data.NewFromBytes("seq-001", nil))
	s.Register(*data.NewFromBytes("seq-002", nil))
	s.Register(*data.NewFromBytes("genebase", nil))
	seqs, err := s.SearchByPrefix("seq-")
	if err != nil || len(seqs) != 2 {
		t.Errorf("SearchByPrefix = %v, %v", seqs, err)
	}
	all, err := s.All()
	if err != nil || len(all) != 3 {
		t.Errorf("All = %d items, %v", len(all), err)
	}
}

func TestLocators(t *testing.T) {
	s := newService()
	d := *data.NewFromBytes("file", []byte("x"))
	s.Register(d)
	l1 := data.Locator{DataUID: d.UID, Protocol: "ftp", Host: "a:21", Ref: "file"}
	l2 := data.Locator{DataUID: d.UID, Protocol: "http", Host: "a:80", Ref: "file"}
	if err := s.AddLocator(l1); err != nil {
		t.Fatal(err)
	}
	if err := s.AddLocator(l1); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := s.AddLocator(l2); err != nil {
		t.Fatal(err)
	}
	locs, err := s.Locators(d.UID)
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != 2 {
		t.Errorf("Locators = %v, want 2", locs)
	}
	// Locator for unknown datum refused.
	if err := s.AddLocator(data.Locator{DataUID: "nope", Protocol: "ftp", Host: "h"}); !errors.Is(err, ErrNotFound) {
		t.Errorf("AddLocator for unknown datum: %v, want ErrNotFound", err)
	}
	// Invalid locator refused.
	if err := s.AddLocator(data.Locator{DataUID: d.UID}); err == nil {
		t.Error("invalid locator accepted")
	}
	// Deleting the datum clears locators.
	s.Delete(d.UID)
	locs, _ = s.Locators(d.UID)
	if len(locs) != 0 {
		t.Errorf("locators survive datum deletion: %v", locs)
	}
}

// TestStoredRowFormatPinned pins the stored format: what Register and
// AddLocator put in the store is these bytes — a type fingerprint, then the
// exported fields in declaration order — so a silent change of format trips
// here instead of in somebody's state directory.
func TestStoredRowFormatPinned(t *testing.T) {
	store := db.NewRowStore()
	s := NewService(store)
	d := data.Data{
		UID: "00000001-00000002-00000003-00000004", Name: "file-0", Checksum: "9a0364b9e99bb480dd25e1f0284c8555",
		Size: 7, Flags: data.FlagExecutable, Created: time.Date(2008, 11, 15, 12, 0, 0, 5, time.UTC),
	}
	if err := s.Register(d); err != nil {
		t.Fatal(err)
	}
	for _, proto := range []string{"ftp", "http"} {
		if err := s.AddLocator(data.Locator{DataUID: d.UID, Protocol: proto, Host: "a:1", Ref: string(d.UID), Login: "anonymous"}); err != nil {
			t.Fatal(err)
		}
	}
	const (
		wantData = "9dd16a862330303030303030312d30303030303030322d30303030303030332d30303030303030340666696c652d302039613033363462396539396262343830646432356531663032383463383535350e020f010000000ec0b0b0c000000005ffff"
		wantLocs = "2e5e581b022330303030303030312d30303030303030322d30303030303030332d30303030303030340366747003613a312330303030303030312d30303030303030322d30303030303030332d303030303030303409616e6f6e796d6f7573002330303030303030312d30303030303030322d30303030303030332d3030303030303034046874747003613a312330303030303030312d30303030303030322d30303030303030332d303030303030303409616e6f6e796d6f757300"
	)
	if raw, _, _ := store.Get(TableData, string(d.UID)); hex.EncodeToString(raw) != wantData {
		t.Errorf("stored datum row is\n%x, want\n%s", raw, wantData)
	}
	if raw, _, _ := store.Get(TableLocators, string(d.UID)); hex.EncodeToString(raw) != wantLocs {
		t.Errorf("stored locator row is\n%x, want\n%s", raw, wantLocs)
	}
}

func TestClientOverLocalRPC(t *testing.T) {
	s := newService()
	mux := rpc.NewMux()
	s.Mount(mux)
	client := NewClient(rpc.NewLocalClient(mux, 0))
	testClientSuite(t, client)
}

func TestClientOverTCP(t *testing.T) {
	s := newService()
	mux := rpc.NewMux()
	s.Mount(mux)
	srv, err := rpc.Listen("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rc, err := rpc.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	testClientSuite(t, NewClient(rc))
}

func testClientSuite(t *testing.T, c *Client) {
	t.Helper()
	d := *data.NewFromBytes("remote", []byte("payload"))
	if err := c.Register(d); err != nil {
		t.Fatalf("Register: %v", err)
	}
	got, err := c.Get(d.UID)
	if err != nil || got.Checksum != d.Checksum {
		t.Fatalf("Get = %+v, %v", got, err)
	}
	found, err := c.SearchByName("remote")
	if err != nil || len(found) != 1 {
		t.Fatalf("SearchByName = %v, %v", found, err)
	}
	l := data.Locator{DataUID: d.UID, Protocol: "http", Host: "h:80", Ref: "remote"}
	if err := c.AddLocator(l); err != nil {
		t.Fatalf("AddLocator: %v", err)
	}
	locs, err := c.Locators(d.UID)
	if err != nil || len(locs) != 1 || locs[0] != l {
		t.Fatalf("Locators = %v, %v", locs, err)
	}
	all, err := c.All()
	if err != nil || len(all) != 1 {
		t.Fatalf("All = %v, %v", all, err)
	}
	if err := c.Delete(d.UID); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := c.Get(d.UID); err == nil {
		t.Fatal("Get after Delete succeeded")
	}
}

func buildDDC(t *testing.T, nodes int) *DDC {
	t.Helper()
	ring := dht.NewRing(dht.WithSeed(1))
	for i := 0; i < nodes; i++ {
		if _, err := ring.AddNode(fmt.Sprintf("res%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	ring.StabilizeFully()
	return NewDDC(ring)
}

func TestDDCPublishOwnersWithdraw(t *testing.T) {
	ddc := buildDDC(t, 10)
	uid := data.NewUID()
	for i := 0; i < 4; i++ {
		if err := ddc.Publish(uid, fmt.Sprintf("host-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	owners, err := ddc.Owners(uid)
	if err != nil || len(owners) != 4 {
		t.Fatalf("Owners = %v, %v", owners, err)
	}
	if err := ddc.Withdraw(uid, "host-1"); err != nil {
		t.Fatal(err)
	}
	owners, _ = ddc.Owners(uid)
	if len(owners) != 3 {
		t.Errorf("after Withdraw: %v", owners)
	}
}

func TestDDCGenericKV(t *testing.T) {
	ddc := buildDDC(t, 6)
	if err := ddc.PublishKV("checkpoint-sig", "ab34"); err != nil {
		t.Fatal(err)
	}
	vals, err := ddc.LookupKV("checkpoint-sig")
	if err != nil || len(vals) != 1 || vals[0] != "ab34" {
		t.Fatalf("LookupKV = %v, %v", vals, err)
	}
}

func TestDDCSurvivesNodeFailure(t *testing.T) {
	ring := dht.NewRing(dht.WithSeed(2))
	for i := 0; i < 12; i++ {
		ring.AddNode(fmt.Sprintf("res%02d", i))
	}
	ring.StabilizeFully()
	ddc := NewDDC(ring)
	uid := data.NewUID()
	ddc.Publish(uid, "owner-a")
	victim, err := ring.Lookup(string(uid))
	if err != nil {
		t.Fatal(err)
	}
	ring.Fail(victim)
	ring.StabilizeFully()
	owners, err := ddc.Owners(uid)
	if err != nil || len(owners) != 1 {
		t.Fatalf("Owners after failure = %v, %v (DHT replication should preserve the entry)", owners, err)
	}
}
