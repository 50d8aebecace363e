// Package rpc is an analysistest stub of bitdew/internal/rpc: just enough
// surface (by name and shape) for the analyzers' package-suffix matching.
package rpc

import "time"

type Client interface {
	Call(service, method string, args, reply any) error
	CallBatch(calls []*Call) error
	Close() error
}

type Call struct {
	Service, Method string
	Args, Reply     any
	Err             error
}

type DialOption func()

func Dial(addr string, opts ...DialOption) (Client, error)        { return nil, nil }
func DialAuto(addr string, opts ...DialOption) (Client, error)    { return nil, nil }
func DialAutoLazy(addr string, opts ...DialOption) Client         { return nil }
func DialAutoLazyN(addr string, n int, opts ...DialOption) Client { return nil }
func WithCallTimeout(d time.Duration) DialOption                  { return func() {} }
func WithCallLatency(d time.Duration) DialOption                  { return func() {} }
