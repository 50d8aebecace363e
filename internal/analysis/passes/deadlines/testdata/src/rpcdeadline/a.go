// Fixture for the deadlines analyzer's dial-site half: no rpc dial without
// a call timeout. (Retry-loop discipline is the deadlineprop fixture's
// half; every dial also blocks, so each function here carries the
// BlocksOnRPC fact.)
package rpcdeadline

import (
	"time"

	"rpc"
)

func dialSites() { // want fact:"BlocksOnRPC\\(rpc.Dial\\)"
	_, _ = rpc.Dial("addr")                                            // want "rpc.Dial without rpc.WithCallTimeout"
	_ = rpc.DialAutoLazy("addr")                                       // want "rpc.DialAutoLazy without rpc.WithCallTimeout"
	_, _ = rpc.DialAuto("addr", rpc.WithCallLatency(time.Millisecond)) // want "rpc.DialAuto without rpc.WithCallTimeout"
	_, _ = rpc.Dial("addr", rpc.WithCallTimeout(time.Second))
	_, _ = rpc.DialAuto("addr", rpc.WithCallLatency(time.Millisecond), rpc.WithCallTimeout(time.Second))
	// Every Dial* of package rpc is a dial site, not a listed few.
	_ = rpc.DialAutoLazyN("addr", 3) // want "rpc.DialAutoLazyN without rpc.WithCallTimeout"
	_ = rpc.DialAutoLazyN("addr", 3, rpc.WithCallTimeout(time.Second))
}

func forwardedOpts(opts ...rpc.DialOption) { // want fact:"BlocksOnRPC\\(rpc.DialAuto\\)"
	// Wholesale forwarding: the originating site carries the timeout.
	_, _ = rpc.DialAuto("addr", opts...)
}
