// Package badpkg violates one invariant per bitdew-vet analyzer; the
// multichecker test asserts the exact six diagnostics.
package badpkg

import (
	"sync"
	"time"

	"rpc"
)

type Payload struct {
	Name string
	Blob any
}

type Service struct {
	mu sync.Mutex
	c  rpc.Client
}

// No analyzer's finding: the real rpc.Register refuses Payload at mount.
func registerBad(m *rpc.Mux) {
	rpc.Register(m, "svc", "m", func(p Payload) (struct{}, error) { return struct{}{}, nil })
}

// lockheld: rpc call under the mutex.
func (s *Service) lockedCall() {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.c.Call("svc", "m", nil, nil)
}

// rpcdeadline: dial site without a call timeout.
func dialBad() (rpc.Client, error) {
	return rpc.DialAuto("addr")
}

// errlost: batch shipped, outcome dropped.
func batchBad(c rpc.Client) {
	calls := []*rpc.Call{rpc.NewCall("svc", "m", nil, nil)}
	c.CallBatch(calls)
}

// leakygo: constructor goroutine with no exit.
func NewService() *Service {
	s := &Service{}
	go func() {
		for {
			_ = time.Now() // busy loop: no stop channel, no return
		}
	}()
	return s
}

// No analyzer's finding either: send forwards its caller-typed parameter
// into the payload position, and the codec refuses forwardBad's Payload on
// the first call, by field path.
func send[T any](c rpc.Client, v T) error {
	return c.Call("svc", "m", v, nil)
}

func forwardBad(c rpc.Client) {
	_ = send(c, Payload{})
}

// lockorder: abba and baab acquire the two locks in opposite orders.
var regMu sync.Mutex

func (s *Service) abba() {
	s.mu.Lock()
	regMu.Lock()
	regMu.Unlock()
	s.mu.Unlock()
}

func (s *Service) baab() {
	regMu.Lock()
	s.mu.Lock()
	s.mu.Unlock()
	regMu.Unlock()
}

// deadlineprop: the blocking call hides one helper frame deep, so only
// the propagated BlocksOnRPC fact exposes the unbounded retry loop.
func fetch(c rpc.Client) error {
	return c.Call("svc", "m", nil, nil)
}

func retryBad(c rpc.Client) {
	for {
		if fetch(c) == nil {
			return
		}
	}
}
