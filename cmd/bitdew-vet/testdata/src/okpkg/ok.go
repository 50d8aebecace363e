// Package okpkg carries exactly one deliberately suppressed finding, so
// the multichecker test can pin that a suppressed finding is neither
// printed nor counted.
package okpkg

import "rpc"

func shipBestEffort(c rpc.Client, calls []*rpc.Call) {
	//vet:ignore errlost metrics fan-out is best-effort by design
	c.CallBatch(calls)
}
