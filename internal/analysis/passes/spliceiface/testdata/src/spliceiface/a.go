// Fixture for the spliceiface analyzer: rpc payload types must not reach
// interface-typed components.
package spliceiface

import (
	"codec"
	"rpc"
)

// Clean is fully concrete: splice-safe.
type Clean struct {
	Name string
	N    []int
	M    map[string][]byte
}

// Dirty reaches an interface directly.
type Dirty struct {
	Name    string
	Payload any
}

// Nested reaches an interface through a slice of structs.
type Nested struct {
	Inner []Dirty
}

// hidden's interface field is unexported: gob ignores it, so the type is
// splice-safe.
type hidden struct {
	Name string
	priv any
}

func registerSites(m *rpc.Mux) {
	rpc.Register(m, "svc", "ok", func(a Clean) (Clean, error) { return a, nil })
	rpc.Register(m, "svc", "bad", func(a Dirty) (struct{}, error) { return struct{}{}, nil }) // want "rpc args type spliceiface.Dirty reaches interface-typed component at Payload"
	rpc.Register(m, "svc", "nested", func(a Clean) (Nested, error) { return Nested{}, nil })  // want "rpc reply type spliceiface.Nested reaches interface-typed component at Inner\\[\\].Payload"
	rpc.Register(m, "svc", "unexported", func(a hidden) (Clean, error) { return Clean{}, nil })
}

func callSites(c rpc.Client) {
	var clean Clean
	var dirty Dirty
	_ = c.Call("svc", "ok", clean, &clean)
	_ = c.Call("svc", "bad", dirty, &clean)  // want "rpc args type spliceiface.Dirty reaches interface-typed component at Payload"
	_ = c.Call("svc", "bad2", clean, &dirty) // want "rpc reply type spliceiface.Dirty reaches interface-typed component at Payload"
	_ = rpc.NewCall("svc", "ok", clean, &clean)
	_ = rpc.NewCall("svc", "bad", Nested{}, &clean) // want "rpc args type spliceiface.Nested reaches interface-typed component at Inner\\[\\].Payload"

	// A payload already typed as an interface carries no concrete type to
	// check at this site.
	var opaque any = clean
	_ = c.Call("svc", "opaque", opaque, nil)
}

// storedRows: a type kept as a row goes through the same codec, so it is
// held to the same rule as an rpc payload.
func storedRows(raw []byte) {
	var clean Clean
	var dirty Dirty
	_, _ = codec.Marshal(clean)
	_ = codec.Unmarshal(raw, &clean)
	_, _ = codec.Marshal(dirty)      // want "codec blob type spliceiface.Dirty reaches interface-typed component at Payload"
	_ = codec.Unmarshal(raw, &dirty) // want "codec blob type spliceiface.Dirty reaches interface-typed component at Payload"
}
