//go:build race

package httpx

// raceEnabled reports that this build runs under the race detector, whose
// instrumentation changes allocation counts; alloc guards skip themselves.
const raceEnabled = true
