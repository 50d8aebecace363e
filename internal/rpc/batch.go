package rpc

import (
	"errors"
	"fmt"
	"sync/atomic"

	"bitdew/internal/codec"
)

// Call is one logical invocation inside a batch: the (service, method) pair,
// its argument, a reply destination (pointer, or nil to discard) and — after
// the batch completes — its individual outcome in Err. Batching never
// collapses per-call errors: one failing call leaves the others intact.
type Call struct {
	Service string
	Method  string
	Args    any
	Reply   any
	Err     error
}

// NewCall builds a batchable call.
func NewCall(service, method string, args, reply any) *Call {
	return &Call{Service: service, Method: method, Args: args, Reply: reply}
}

// BatchCaller is implemented by clients whose transport can carry several
// logical calls in one write/read cycle (one round trip, one latency charge).
type BatchCaller interface {
	// CallBatch runs every call, filling each Call's Reply and Err. The
	// returned error reports transport-level failure of the whole frame; in
	// that case every Call.Err is also set.
	CallBatch(calls []*Call) error
}

// RoundTripCounter is implemented by clients that count their request
// frames: a plain Call costs one round trip, a CallBatch of N calls also
// costs one. Benchmarks use it to show the batch path's round-trip collapse.
type RoundTripCounter interface {
	RoundTrips() uint64
}

// RoundTrips reports the number of request frames c has sent, when c counts
// them (both built-in clients do).
func RoundTrips(c Client) (uint64, bool) {
	rc, ok := c.(RoundTripCounter)
	if !ok {
		return 0, false
	}
	return rc.RoundTrips(), true
}

// CallBatch runs calls against c in one round trip when the transport
// supports it, falling back to sequential Calls otherwise. Per-call errors
// land in each Call.Err; the returned error is the transport-level failure
// of the frame, if any.
func CallBatch(c Client, calls []*Call) error {
	if len(calls) == 0 {
		return nil
	}
	if bc, ok := c.(BatchCaller); ok {
		return bc.CallBatch(calls)
	}
	for _, call := range calls {
		call.Err = c.Call(call.Service, call.Method, call.Args, call.Reply)
	}
	return nil
}

// FirstError returns the first non-nil Call.Err of a completed batch.
func FirstError(calls []*Call) error {
	for _, call := range calls {
		if call.Err != nil {
			return call.Err
		}
	}
	return nil
}

// appendItems appends one wire item per call to items, encoding into the
// buffers its spare capacity still holds.
func appendItems(items []batchItem, calls []*Call) ([]batchItem, error) {
	for _, call := range calls {
		if len(items) == cap(items) {
			items = append(items, batchItem{})
		} else {
			items = items[:len(items)+1]
		}
		it := &items[len(items)-1]
		it.Service = append(it.Service[:0], call.Service...)
		it.Method = append(it.Method[:0], call.Method...)
		var err error
		if it.Args, err = codec.Append(it.Args[:0], call.Args); err != nil {
			return items, fmt.Errorf("rpc: encoding args of %s.%s: %w", call.Service, call.Method, err)
		}
	}
	return items, nil
}

// applyReplies decodes a wire batch reply into the calls' Reply/Err fields.
func applyReplies(calls []*Call, replies []batchReply) error {
	if len(replies) != len(calls) {
		return fmt.Errorf("rpc: batch answered %d of %d calls", len(replies), len(calls))
	}
	for i, call := range calls {
		r := replies[i]
		if r.Err != "" {
			call.Err = errors.New(r.Err)
			continue
		}
		if call.Reply == nil {
			call.Err = nil
			continue
		}
		call.Err = codec.Unmarshal(r.Reply, call.Reply)
	}
	return nil
}

// failCalls stamps every call with the frame-level error.
func failCalls(calls []*Call, err error) error {
	for _, call := range calls {
		call.Err = err
	}
	return err
}

// dispatchBatch runs every item of a batch frame against the Mux, in order,
// so dependent calls batched together (delete then unschedule) keep their
// sequential semantics.
func (m *Mux) dispatchBatch(items []batchItem) []batchReply {
	replies := make([]batchReply, len(items))
	for i, it := range items {
		reply, err := m.dispatch(it.Service, it.Method, it.Args)
		if err != nil {
			replies[i] = batchReply{Err: err.Error()}
			continue
		}
		replies[i] = batchReply{Reply: reply}
	}
	return replies
}

// frameCounter counts request frames (round trips) issued by a client.
type frameCounter struct{ n atomic.Uint64 }

func (f *frameCounter) inc() { f.n.Add(1) }

// RoundTrips returns the frames sent so far.
func (f *frameCounter) RoundTrips() uint64 { return f.n.Load() }
