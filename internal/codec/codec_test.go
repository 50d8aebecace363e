package codec

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"bitdew/internal/data"
)

// The splice pool's whole claim is "byte-identical to a fresh encoder".
// These tests hold it to that: spliced blobs must equal fresh gob output
// exactly, decode with plain gob, and every unsafe or foreign shape must
// fall back to the fresh path without observable difference.

// hotArgs is a representative rpc argument: a couple of strings and a small
// payload.
type hotArgs struct {
	UID  string
	Name string
	Data []byte
}

type spliceNested struct {
	Tags  map[string]int
	Peers []string
}

type spliceRich struct {
	UID    string
	Size   int64
	Blob   []byte
	Nested spliceNested
	Ptr    *spliceNested
}

func freshGob(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSpliceMatchesFreshEncoder compares spliced output against a fresh
// encoder's, byte for byte, across repeated encodes (warm-path) and varied
// values.
func TestSpliceMatchesFreshEncoder(t *testing.T) {
	for i := 0; i < 50; i++ {
		vals := []any{
			hotArgs{UID: fmt.Sprintf("uid-%d", i), Name: "n", Data: []byte{byte(i)}},
			spliceRich{
				UID:    fmt.Sprintf("rich-%d", i),
				Size:   int64(i * 100),
				Blob:   bytes.Repeat([]byte{byte(i)}, i%7),
				Nested: spliceNested{Tags: map[string]int{"a": i}, Peers: []string{"p1", "p2"}},
				Ptr:    &spliceNested{Peers: []string{"q"}},
			},
			&hotArgs{UID: "by-pointer"},
			[]string{"a", "b", fmt.Sprint(i)},
		}
		for _, v := range vals {
			got, err := Marshal(v)
			if err != nil {
				t.Fatalf("Marshal(%T): %v", v, err)
			}
			if want := freshGob(t, v); !bytes.Equal(got, want) {
				t.Fatalf("iteration %d: Marshal(%T) diverged from fresh gob output", i, v)
			}
		}
	}
}

// TestSpliceRoundTrip runs values through the pooled encode AND the pooled
// decode repeatedly, so both warm paths are exercised past warm-up.
func TestSpliceRoundTrip(t *testing.T) {
	for i := 0; i < 50; i++ {
		in := spliceRich{
			UID:    fmt.Sprintf("rt-%d", i),
			Size:   int64(i),
			Nested: spliceNested{Tags: map[string]int{"k": i}},
		}
		raw, err := Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		var out spliceRich
		if err := Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("iteration %d: round trip mutated value:\n in: %+v\nout: %+v", i, in, out)
		}
	}
}

type withIface struct {
	Name string
	V    any
}

// TestSpliceUnsafeTypeFallsBack pins the safety gate: a type with a
// reachable interface field never splices (a warm encoder's state could
// grow mid-stream) but still encodes and decodes through the fresh path.
func TestSpliceUnsafeTypeFallsBack(t *testing.T) {
	if spliceSafe(reflect.TypeOf(withIface{}), nil) {
		t.Fatal("interface-bearing type judged splice-safe")
	}
	gob.Register(spliceNested{})
	for i := 0; i < 10; i++ {
		// Alternate dynamic types — exactly the stream-state growth splicing
		// cannot survive.
		var in withIface
		if i%2 == 0 {
			in = withIface{Name: "s", V: spliceNested{Peers: []string{"x"}}}
		} else {
			in = withIface{Name: "i", V: spliceNested{Tags: map[string]int{"y": i}}}
		}
		raw, err := Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		var out withIface
		if err := Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("iteration %d: %+v != %+v", i, in, out)
		}
	}
	if spliceSafe(reflect.TypeOf(hotArgs{}), nil) != true {
		t.Fatal("plain struct judged unsafe")
	}
}

// TestSpliceDecodeForeignLayout feeds the decoder blobs whose definition
// bytes don't match the receiver's own prefix (sender type with an extra
// field — legal gob, different wire layout). The pool must step aside and
// the fresh path must decode them.
func TestSpliceDecodeForeignLayout(t *testing.T) {
	type sender struct {
		UID   string
		Name  string
		Extra int
	}
	type receiver struct {
		UID  string
		Name string
	}
	// Warm the receiver's decode pool with its own layout first.
	self, err := Marshal(receiver{UID: "self", Name: "n"})
	if err != nil {
		t.Fatal(err)
	}
	var r receiver
	for i := 0; i < 3; i++ {
		if err := Unmarshal(self, &r); err != nil {
			t.Fatal(err)
		}
	}
	foreign := freshGob(t, sender{UID: "foreign", Name: "f", Extra: 7})
	for i := 0; i < 3; i++ {
		var got receiver
		if err := Unmarshal(foreign, &got); err != nil {
			t.Fatalf("foreign layout decode %d: %v", i, err)
		}
		if got.UID != "foreign" || got.Name != "f" {
			t.Fatalf("foreign decode %d: %+v", i, got)
		}
	}
	// The pool must still work for the native layout afterwards.
	if err := Unmarshal(self, &r); err != nil || r.UID != "self" {
		t.Fatalf("native decode after foreign traffic: %+v, %v", r, err)
	}
}

// TestSpliceConcurrent hammers one type's pools from many goroutines; run
// under -race this checks the Get/Put discipline.
func TestSpliceConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				in := hotArgs{UID: fmt.Sprintf("g%d-%d", g, i), Data: []byte{byte(g), byte(i)}}
				raw, err := Marshal(in)
				if err != nil {
					t.Error(err)
					return
				}
				var out hotArgs
				if err := Unmarshal(raw, &out); err != nil {
					t.Error(err)
					return
				}
				if out.UID != in.UID {
					t.Errorf("got %q, want %q", out.UID, in.UID)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// ---- Stored rows ----
//
// The D* services keep their rows as standalone blobs in a db.Store, written
// by a fresh encoder before this package existed. What is stored must not
// change by a byte, and what every existing state dir holds must decode
// through the pool.

func storedRows(i int) []any {
	uid := data.UID(fmt.Sprintf("%08x-00000000-00000000-00000000", i))
	d := data.Data{
		UID:      uid,
		Name:     fmt.Sprintf("row-%d", i),
		Checksum: "9e107d9d372bb6826bd81d3542a419d6",
		Size:     int64(i) << 10,
		Flags:    data.FlagCompressed,
		Created:  time.Unix(1_700_000_000+int64(i), int64(i)).UTC(),
	}
	locs := make([]data.Locator, 1+i%3)
	for j := range locs {
		locs[j] = data.Locator{DataUID: uid, Protocol: "http", Host: fmt.Sprintf("10.0.0.%d:80", j), Ref: string(uid)}
	}
	return []any{d, locs}
}

// TestStoredRowsMatchFreshEncoder: Marshal of the catalog's two row types is
// a fresh encoder's output byte for byte, warm-up and after.
func TestStoredRowsMatchFreshEncoder(t *testing.T) {
	for i := 0; i < 20; i++ {
		for _, v := range storedRows(i) {
			got, err := Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, freshGob(t, v)) {
				t.Fatalf("row %d: Marshal(%T) diverged from fresh gob output", i, v)
			}
		}
	}
}

// TestFreshBlobsDecodeThroughPool: rows written by a fresh encoder are
// handled by the warm decoders (not the fallback) and count as native.
func TestFreshBlobsDecodeThroughPool(t *testing.T) {
	before := ForeignDecodes()
	for i := 0; i < 20; i++ {
		rows := storedRows(i)
		var d data.Data
		raw := freshGob(t, rows[0])
		if handled, err := splicerFor(reflect.TypeOf(&d)).spliceDecode(raw, &d); !handled || err != nil {
			t.Fatalf("row %d: data.Data handled by pool = %v, err %v", i, handled, err)
		}
		if !reflect.DeepEqual(d, rows[0]) {
			t.Fatalf("row %d: %+v != %+v", i, d, rows[0])
		}
		var locs []data.Locator
		if err := Unmarshal(freshGob(t, rows[1]), &locs); err != nil || !reflect.DeepEqual(locs, rows[1]) {
			t.Fatalf("row %d: %+v, %v", i, locs, err)
		}
	}
	if n := ForeignDecodes() - before; n != 0 {
		t.Fatalf("%d fresh-encoder blobs counted as foreign", n)
	}
}

// TestPooledDecoderKeepsNoValueState decodes a full row and then a sparse
// one (gob omits zero-valued fields) through the same warm decoder. Into
// fresh receivers — what every caller in the plane does — the sparse row has
// nothing of the full one. Into a REUSED receiver the omitted fields keep
// their old values, exactly as with a fresh gob.Decoder: that is gob's
// merge semantics, not a leak of the pool, and it is not supported as a way
// to read rows.
func TestPooledDecoderKeepsNoValueState(t *testing.T) {
	full := storedRows(7)[0].(data.Data)
	sparse := data.Data{UID: "sparse"}
	fullRaw, sparseRaw := freshGob(t, full), freshGob(t, sparse)
	for i := 0; i < 5; i++ {
		var a, b data.Data
		if err := Unmarshal(fullRaw, &a); err != nil || !reflect.DeepEqual(a, full) {
			t.Fatalf("full row: %+v, %v", a, err)
		}
		if err := Unmarshal(sparseRaw, &b); err != nil || !reflect.DeepEqual(b, sparse) {
			t.Fatalf("sparse row after a full one, fresh receiver: %+v, %v", b, err)
		}
	}
	pooled, plain := full, full
	if err := Unmarshal(sparseRaw, &pooled); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewDecoder(bytes.NewReader(sparseRaw)).Decode(&plain); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pooled, plain) || pooled.UID != "sparse" || pooled.Name != full.Name {
		t.Fatalf("reused receiver: pool gave %+v, a fresh decoder %+v", pooled, plain)
	}
}

// TestForeignAndTruncatedEndOnFreshPath: a blob under another type's prefix
// and a blob cut short both leave the pool and get the fresh decoder's
// verdict — its value for the first, its error for the second — and the
// pool serves the native layout afterwards.
func TestForeignAndTruncatedEndOnFreshPath(t *testing.T) {
	type dataRow struct { // data.Data's fields under another name
		UID  data.UID
		Name string
	}
	native := freshGob(t, data.Data{UID: "native", Name: "n"})
	var d data.Data
	for i := 0; i < 3; i++ {
		if err := Unmarshal(native, &d); err != nil {
			t.Fatal(err)
		}
	}
	before := ForeignDecodes()
	foreign := freshGob(t, dataRow{UID: "foreign", Name: "f"})
	var got data.Data
	if err := Unmarshal(foreign, &got); err != nil || got.UID != "foreign" || got.Name != "f" {
		t.Fatalf("foreign blob: %+v, %v", got, err)
	}
	if n := ForeignDecodes() - before; n != 1 {
		t.Fatalf("foreign blob counted %d times", n)
	}
	for _, cut := range []int{len(native) - 1, len(native) - 5, 3, 0} {
		var want, have data.Data
		wantErr := gob.NewDecoder(bytes.NewReader(native[:cut])).Decode(&want)
		haveErr := Unmarshal(native[:cut], &have)
		if wantErr == nil || haveErr == nil || wantErr.Error() != haveErr.Error() {
			t.Fatalf("blob cut at %d: pool says %v, a fresh decoder %v", cut, haveErr, wantErr)
		}
	}
	if err := Unmarshal(native, &d); err != nil || d.UID != "native" {
		t.Fatalf("native decode after foreign and truncated blobs: %+v, %v", d, err)
	}
}

// TestUnmarshalConcurrent decodes different rows of one type from many
// goroutines; under -race it checks the decoder pool's Get/Put discipline,
// and always that no goroutine reads another's row.
func TestUnmarshalConcurrent(t *testing.T) {
	const rows = 64
	raws := make([][]byte, rows)
	for i := range raws {
		raws[i] = freshGob(t, storedRows(i)[0])
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				k := (g*31 + i) % rows
				var d data.Data
				if err := Unmarshal(raws[k], &d); err != nil {
					t.Error(err)
					return
				}
				if want := storedRows(k)[0]; !reflect.DeepEqual(d, want) {
					t.Errorf("row %d: %+v != %+v", k, d, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
