package repository

import (
	"testing"

	"bitdew/internal/data"
	"bitdew/internal/rpc"
)

// TestLocatorBatchOverRPC: the batch locator endpoint answers over rpc,
// aligned with its uids, the preferred protocol when served and the first
// served one otherwise; an empty batch costs no call.
func TestLocatorBatchOverRPC(t *testing.T) {
	s := NewService(NewMemBackend())
	s.RegisterEndpoint("http", "h:80")
	s.RegisterEndpoint("ftp", "h:21")
	mux := rpc.NewMux()
	s.Mount(mux)
	c := NewClient(rpc.NewLocalClient(mux, 0))

	uids := []data.UID{data.NewUID(), data.NewUID()}
	for _, tc := range []struct{ preferred, want, host string }{
		{"http", "http", "h:80"},
		{"bittorrent", "ftp", "h:21"},
	} {
		locs, err := c.LocatorAnyBatch(uids, tc.preferred)
		if err != nil || len(locs) != len(uids) {
			t.Fatalf("LocatorAnyBatch(%q) = %+v, %v", tc.preferred, locs, err)
		}
		for i, l := range locs {
			if l.DataUID != uids[i] || l.Protocol != tc.want || l.Host != tc.host || l.Ref != string(uids[i]) {
				t.Errorf("LocatorAnyBatch(%q) slot %d = %+v", tc.preferred, i, l)
			}
		}
	}
	if out, err := c.LocatorAnyBatch(nil, "http"); err != nil || out != nil {
		t.Fatalf("empty batch = %v, %v", out, err)
	}
}

// TestCheckLocator: a locator claiming this repository's copy of a datum
// passes only at the endpoint serving its protocol now, and only for content
// that is here; a locator for anything else passes untouched.
func TestCheckLocator(t *testing.T) {
	s := NewService(NewMemBackend())
	s.RegisterEndpoint("http", "h:80")
	held, missing := data.NewUID(), data.NewUID()
	if err := s.Backend().Put(string(held), []byte("here")); err != nil {
		t.Fatal(err)
	}
	own := func(uid data.UID, host string) data.Locator {
		return data.Locator{DataUID: uid, Protocol: "http", Host: host, Ref: string(uid)}
	}
	for _, tc := range []struct {
		name string
		l    data.Locator
		ok   bool
	}{
		{"held, at the current endpoint", own(held, "h:80"), true},
		{"held, at an old endpoint", own(held, "h:81"), false},
		{"not held, at the current endpoint", own(missing, "h:80"), false},
		{"another ref", data.Locator{DataUID: missing, Protocol: "http", Host: "w:80", Ref: "elsewhere"}, true},
		{"a protocol this repository does not serve", data.Locator{DataUID: missing, Protocol: "ftp", Host: "w:21", Ref: string(missing)}, true},
	} {
		if err := s.CheckLocator(tc.l); (err == nil) != tc.ok {
			t.Errorf("%s: CheckLocator(%s) = %v, want ok %v", tc.name, tc.l, err, tc.ok)
		}
	}
}
