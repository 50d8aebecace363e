package core

import (
	"testing"

	"bitdew/internal/data"
)

// TestLocatorCacheInvalidateDropsEveryProtocol: invalidating a datum drops
// its entries under every protocol they were stored with, and no other
// datum's.
func TestLocatorCacheInvalidateDropsEveryProtocol(t *testing.T) {
	c := newLocatorCache(16)
	loc := func(uid data.UID, p string) []data.Locator {
		return []data.Locator{{DataUID: uid, Protocol: p, Host: "h:1", Ref: string(uid)}}
	}
	protocols := []string{"", "http", "ftp"}
	for _, uid := range []data.UID{"gone", "kept"} {
		for _, p := range protocols {
			c.put(uid, p, loc(uid, p))
		}
	}
	c.invalidate("gone")
	for _, p := range protocols {
		if _, ok := c.get("gone", p); ok {
			t.Errorf("invalidated datum still cached under protocol %q", p)
		}
		if locs, ok := c.get("kept", p); !ok || locs[0].Protocol != p {
			t.Errorf("other datum under protocol %q = %v, %v; want its entry", p, locs, ok)
		}
	}
	if n := c.order.Len(); n != len(protocols) {
		t.Errorf("cache holds %d entries, want the other datum's %d", n, len(protocols))
	}
}
