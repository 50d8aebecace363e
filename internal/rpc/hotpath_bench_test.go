package rpc

import (
	"fmt"
	"testing"

	"bitdew/internal/codec"
)

// ---- Wire hot path (encode/dispatch cost under sustained load) ----
//
// Under the sustained-load harness (cmd/bitdew-stress) every op crosses the
// rpc layer at least once, so per-call allocation on the encode path and
// goroutine churn on the server multiply by the op rate. BenchmarkRPCHotPath
// measures the two client-side shapes that dominate: a single Call and a
// 64-call CallBatch over loopback TCP, plus the bare encode paths they sit
// on. TestRPCEncodeAllocAcceptance (alloc_test.go) pins the optimisation.

// hotArgs is a representative service argument: a couple of strings and a
// small payload, the shape of catalog/repository traffic.
type hotArgs struct {
	UID  string
	Name string
	Data []byte
}

type hotReply struct {
	OK  bool
	UID string
}

func hotMux() *Mux {
	m := NewMux()
	Register(m, "dc", "touch", func(a hotArgs) (hotReply, error) {
		return hotReply{OK: true, UID: a.UID}, nil
	})
	return m
}

func hotCallArgs(i int) hotArgs {
	return hotArgs{
		UID:  fmt.Sprintf("uid-%04d", i),
		Name: "stress-pre-0001",
		Data: make([]byte, 64),
	}
}

func BenchmarkRPCHotPath(b *testing.B) {
	b.Run("encode", func(b *testing.B) {
		args := hotCallArgs(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := codec.Marshal(args); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("encodeCalls64", func(b *testing.B) {
		calls := make([]*Call, 64)
		for i := range calls {
			args := hotCallArgs(i)
			calls[i] = NewCall("dc", "touch", args, nil)
		}
		var items []batchItem
		var err error
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if items, err = appendItems(items[:0], calls); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("call", func(b *testing.B) {
		srv, err := Listen("127.0.0.1:0", hotMux())
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		c, err := Dial(srv.Addr())
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		args := hotCallArgs(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var r hotReply
			if err := c.Call("dc", "touch", args, &r); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("batch64", func(b *testing.B) {
		srv, err := Listen("127.0.0.1:0", hotMux())
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		c, err := Dial(srv.Addr())
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		bc := c.(BatchCaller)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			calls := make([]*Call, 64)
			replies := make([]hotReply, 64)
			for j := range calls {
				calls[j] = NewCall("dc", "touch", hotCallArgs(j), &replies[j])
			}
			if err := bc.CallBatch(calls); err != nil {
				b.Fatal(err)
			}
			if err := FirstError(calls); err != nil {
				b.Fatal(err)
			}
		}
	})
}
