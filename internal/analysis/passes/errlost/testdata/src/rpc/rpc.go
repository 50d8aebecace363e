// Package rpc is an analysistest stub of bitdew/internal/rpc: just enough
// surface (by name and shape) for the analyzers' package-suffix matching.
package rpc

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

func NewCall(service, method string, args, reply any) *Call {
	return &Call{Service: service, Method: method, Args: args, Reply: reply}
}

func CallBatch(c Client, calls []*Call) error { return c.CallBatch(calls) }

func FirstError(calls []*Call) error {
	for _, call := range calls {
		if call.Err != nil {
			return call.Err
		}
	}
	return nil
}
