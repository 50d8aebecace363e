// Package rpc is an analysistest stub of bitdew/internal/rpc: just enough
// surface (by name and shape) for astq's package-suffix matching.
package rpc

import "time"

type Client interface {
	Call(service, method string, args, reply any) error
	CallBatch(calls []*Call) error
}

type Call struct{ Err error }

type DialOption func()

// Conn has a method named like a dial: methods are not dial sites.
type Conn struct{}

func (c *Conn) Dial() {}

func Dial(addr string, opts ...DialOption) (Client, error)        { return nil, nil }
func DialAutoLazyN(addr string, n int, opts ...DialOption) Client { return nil }
func Listen(addr string) error                                    { return nil }
func CallBatch(c Client, calls []*Call) error                     { return nil }
func WithCallTimeout(d time.Duration) DialOption                  { return func() {} }
