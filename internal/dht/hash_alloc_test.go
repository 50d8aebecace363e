package dht

import "testing"

func TestHashIDAllocatesNothing(t *testing.T) {
	uid := "18d905f7-284213c8-00000001-512a883c"
	if n := testing.AllocsPerRun(100, func() { HashID(uid) }); n != 0 {
		t.Errorf("HashID of a UID allocates %v times, want 0", n)
	}
}
