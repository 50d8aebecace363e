// Package astqfix is the astq test fixture: each function holds the one
// call (or loop) a table row of astq_test.go asks about, first in its
// body.
package astqfix

import (
	"net"
	"time"

	"rpc"
)

type T struct{}

func (t *T) Ptr() {}
func (t T) Val()  {}

func Generic[E any](e E) E { return e }

func ptrMethod(t *T)             { t.Ptr() }
func valMethod(t T)              { t.Val() }
func methodExpr(t *T)            { (*T).Ptr(t) }
func genericInferred()           { Generic(1) }
func genericExplicit()           { Generic[int](1) }
func parenthesized(t *T)         { (t.Ptr)() }
func invokedLiteral()            { func() {}() }
func builtin(s []int)            { _ = len(s) }
func conversion(x int)           { _ = int64(x) }
func interfaceCall(c rpc.Client) { c.Call("s", "m", nil, nil) }

func methodValue(t *T) {
	f := t.Ptr
	f()
}

func callBatchMethod(c rpc.Client) { c.CallBatch(nil) }
func callBatchFunc(c rpc.Client)   { rpc.CallBatch(c, nil) }
func dial()                        { rpc.Dial("addr") }
func dialAutoLazyN()               { rpc.DialAutoLazyN("addr", 3) }
func dialMethod(c *rpc.Conn)       { c.Dial() }
func listen()                      { rpc.Listen("addr") }
func netDial()                     { net.Dial("tcp", "addr") }
func netDialTimeout()              { net.DialTimeout("tcp", "addr", time.Second) }
func sleep()                       { time.Sleep(time.Second) }
func now()                         { time.Now() }
func option()                      { rpc.WithCallTimeout(time.Second) }

func forEver() {
	for {
	}
}

func forTrue() {
	for true {
	}
}

func forCounted() {
	for i := 0; i < 3; i++ {
	}
}

func forCond(ok bool) {
	for ok {
	}
}
