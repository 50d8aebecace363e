// Fixture for the locks analyzer's held-lock half: no RPC, dial or sleep
// while a sync.Mutex/RWMutex is held. Every function that locks also gets
// the order half's Acquires fact.
package lockheld

import (
	"net"
	"sync"
	"time"

	"rpc"
)

type S struct {
	mu sync.Mutex
	rw sync.RWMutex
	c  rpc.Client
}

func (s *S) badCall() { // want fact:"Acquires\\(lockheld.S.mu\\)"
	s.mu.Lock()
	s.c.Call("a", "b", nil, nil) // want "rpc Call while holding s.mu"
	s.mu.Unlock()
}

func (s *S) badDialUnderDefer() error { // want fact:"Acquires\\(lockheld.S.mu\\)"
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := rpc.Dial("addr") // want "rpc.Dial while holding s.mu"
	return err
}

func (s *S) badSleepUnderRLock() { // want fact:"Acquires\\(lockheld.S.rw\\)"
	s.rw.RLock()
	time.Sleep(time.Second) // want "time.Sleep while holding s.rw"
	s.rw.RUnlock()
}

func (s *S) badBatchInBranch() { // want fact:"Acquires\\(lockheld.S.mu\\)"
	s.mu.Lock()
	if s.c != nil {
		_ = s.c.CallBatch(nil) // want "rpc CallBatch while holding s.mu"
	}
	s.mu.Unlock()
}

func (s *S) badNetDial() { // want fact:"Acquires\\(lockheld.S.mu\\)"
	s.mu.Lock()
	defer s.mu.Unlock()
	_, _ = net.Dial("tcp", "addr") // want "net.Dial while holding s.mu"
}

func (s *S) goodAfterUnlock() { // want fact:"Acquires\\(lockheld.S.mu\\)"
	s.mu.Lock()
	c := s.c
	s.mu.Unlock()
	_ = c.Call("a", "b", nil, nil)
}

func (s *S) goodGoroutine() { // want fact:"Acquires\\(lockheld.S.mu\\)"
	s.mu.Lock()
	go func() {
		_ = s.c.Call("a", "b", nil, nil) // runs without the caller's lock
	}()
	s.mu.Unlock()
}

func (s *S) goodBranchLocalLock() { // want fact:"Acquires\\(lockheld.S.mu\\)"
	if s.c != nil {
		s.mu.Lock()
		s.mu.Unlock()
	}
	_ = s.c.Call("a", "b", nil, nil)
}

func (s *S) goodReleasedInBranchStaysHeldOutside() { // want fact:"Acquires\\(lockheld.S.mu\\)"
	// An unlock inside a branch must not leak out: the conservative model
	// keeps the lock held after the if, so the trailing dial is flagged.
	s.mu.Lock()
	if s.c == nil {
		s.mu.Unlock()
		return
	}
	_, _ = rpc.DialAuto("addr") // want "rpc.DialAuto while holding s.mu"
	s.mu.Unlock()
}

func (s *S) goodSuppressed() { // want fact:"Acquires\\(lockheld.S.mu\\)"
	s.mu.Lock()
	//vet:ignore locks fixture-documented exception with a reason
	time.Sleep(time.Millisecond)
	s.mu.Unlock()
}
